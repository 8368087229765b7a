//! Neural-network abstraction oracle family.
//!
//! Random small controllers with 1–4 inputs (up to the 3-D benchmark and
//! across the 4-lane boundary of the chunked dot product) are abstracted
//! over random narrow state boxes, and each case makes two checks:
//!
//! * enclosure: the output Taylor models of one of the two back-ends
//!   (Taylor with Lagrange remainder, Bernstein with sampled remainder plus
//!   Lipschitz inflation) must contain the concrete `Network::forward` value
//!   at sampled points of the box — the contract every verified
//!   reachability step rests on;
//! * kernel differential: `BernsteinAbstraction::fit` at degree 1–3 and
//!   1–9 samples per axis must return the fitted polynomials (term keys and
//!   coefficient bits) and sampled errors (bits) of the retired
//!   implementation in [`crate::reference`];
//! * abstraction differential: `BernsteinAbstraction::abstract_network_ws`
//!   at composition order 1–8, on a state with or without remainders, must
//!   return the output models (term keys, coefficient bits, remainder bits)
//!   of the retired [`crate::reference::bernstein_abstraction`], or refuse
//!   where it refuses, on a fresh workspace and on one warmed by another
//!   box;
//! * composition differential: `compose_parts_into` called directly on a
//!   fit-shaped polynomial (1–4 variables, per-axis degree 1–3, some
//!   coefficients at or below the `1e-14` pruning threshold) and arguments
//!   `a + b·t_v` in distinct, permuted variables (constant absent, tiny or
//!   ordinary; remainder zero, one subnormal quantum or `1e-3`-scale),
//!   order 1–8, over a unit or a shifted domain, must return
//!   [`crate::reference::compose_parts`]'s model bit for bit, on a fresh
//!   workspace and on one warmed by another shape or by the same shape on
//!   other argument values. One case in four makes
//!   one argument quadratic, two-variable or a repeat of another's
//!   variable, which takes the general path. Its draws come from a stream
//!   of their own, so the checks above keep theirs.
//! * controller-change differential: `abstract_network_ws` on a workspace
//!   warmed by another controller of the same shape (its first layer, its
//!   later layers or all its parameters redrawn) must return
//!   [`crate::reference::bernstein_abstraction`]'s models bit for bit. It
//!   holds the per-controller state the workspace keeps (the Lipschitz
//!   bound's first-layer sums) to its key. Its draws come from a stream of
//!   their own as well.

use super::{case_rng, CaseOutcome, Family};
use crate::reference;
use crate::rng::CheckRng;
use dwv_dynamics::NnController;
use dwv_interval::arbitrary::{f64_in, unit_f64};
use dwv_interval::{Interval, IntervalBox};
use dwv_nn::arbitrary::network;
use dwv_poly::Polynomial;
use dwv_reach::{BernsteinAbstraction, NnAbstraction, ReachError, TaylorAbstraction};
use dwv_taylor::{compose_parts_into, unit_domain, TaylorModel, TmVector, TmWorkspace};

/// NN output-set abstraction vs concrete forward evaluation, and the
/// Bernstein fitting kernel vs its retired implementation.
pub struct NnFamily;

impl Family for NnFamily {
    fn id(&self) -> u8 {
        7
    }

    fn name(&self) -> &'static str {
        "nn"
    }

    fn oracle(&self) -> &'static str {
        "concrete Network::forward at sampled points of the state box, and the \
         retired Bernstein fit, remainder loop, whole abstraction and composition, \
         bit for bit"
    }

    fn check(&self, seed: u64, size: u8) -> CaseOutcome {
        if let Some(v) = composition(seed) {
            return v;
        }
        if let Some(v) = controller_change(seed) {
            return v;
        }
        let mut rng = case_rng(self.id(), seed);
        let mut next = || rng.next_u64();
        let in_dim = 1 + (next() as usize) % 4;
        let out_dim = 1 + (next() as usize) % 2;
        let max_width = 2 + usize::from(size) % 3;
        let net = network(&mut next, in_dim, out_dim, 2, max_width);
        let controller = NnController::with_output_scale(net, f64_in(next(), 0.5, 4.0));

        let center: Vec<f64> = (0..in_dim).map(|_| f64_in(next(), -0.5, 0.5)).collect();
        // One axis in eight is nearly flat: the fit then spans a box far
        // narrower than its neighbours.
        let radius: Vec<f64> = (0..in_dim)
            .map(|_| match next() % 8 {
                0 => 1e-9,
                _ => 0.05 + 0.25 * unit_f64(next()),
            })
            .collect();
        let state_box = IntervalBox::from_center_radius(&center, &radius);
        let degree = 1 + (next() % 3) as u32;
        let samples = 1 + (next() as usize) % 9;
        let use_taylor = next() % 2 == 0;
        let order = 2 + (next() % 2) as u32;

        let verdict = enclosure(&controller, &state_box, use_taylor, order, &mut next);
        if let CaseOutcome::Violation(_) = verdict {
            return verdict;
        }
        let mids = state_box.center();
        let rads = state_box.radii();
        let kernel = BernsteinAbstraction {
            degree,
            samples_per_dim: samples,
            ..BernsteinAbstraction::default()
        }
        .fit(&controller, &mids, &rads);
        let kernel = match kernel {
            Ok(k) => k,
            Err(e) => {
                return CaseOutcome::Violation(format!("Bernstein fit refused a valid box: {e}"))
            }
        };
        let retired = reference::bernstein_fit(&controller, &mids, &rads, degree, samples);
        if kernel.len() != retired.len() {
            return CaseOutcome::Violation(format!(
                "kernel fitted {} outputs, the reference {}",
                kernel.len(),
                retired.len()
            ));
        }
        for (o, ((g, err), (g_ref, err_ref))) in kernel.iter().zip(&retired).enumerate() {
            if !g.bits_eq(g_ref) {
                return CaseOutcome::Violation(format!(
                    "degree-{degree} fit of output {o} differs from the reference: \
                     {} vs {} (box {state_box:?})",
                    terms(g),
                    terms(g_ref)
                ));
            }
            if err.to_bits() != err_ref.to_bits() {
                return CaseOutcome::Violation(format!(
                    "sampled error of output {o} on the {samples}-per-axis grid is {err:e}, \
                     the reference {err_ref:e} (box {state_box:?})"
                ));
            }
        }
        // Whole-abstraction differential, drawn after everything above so
        // earlier cases keep their draws: a state with a remainder on some
        // components, a composition order, and a box to warm the workspace
        // on first.
        let mut state = TmVector::from_box(&state_box);
        if next() % 2 == 0 {
            let with_rem: Vec<TaylorModel> = state
                .components()
                .iter()
                .map(|t| t.add_interval(Interval::symmetric(1e-3 * unit_f64(next()))))
                .collect();
            state = TmVector::new(with_rem);
        }
        let compose_order = 1 + (next() % 8) as u32;
        let shift = f64_in(next(), -0.2, 0.2);
        let abs = BernsteinAbstraction {
            degree,
            samples_per_dim: samples,
            compose_order,
        };
        let domain = unit_domain(in_dim);
        let want = reference::bernstein_abstraction(
            &controller,
            &state,
            &domain,
            degree,
            samples,
            compose_order,
        );
        let mut ws = TmWorkspace::new();
        let fresh = abs.abstract_network_ws(&controller, &state, &domain, &mut ws);
        if let Some(v) = same_abstraction(&want, &fresh, "fresh", &state_box) {
            return v;
        }
        // Warm: the workspace has served a shifted box, and its output came
        // back through `reuse`.
        let warm_box = IntervalBox::from_center_radius(
            &mids.iter().map(|c| c + shift).collect::<Vec<_>>(),
            &rads.iter().map(|r| 2.0 * r).collect::<Vec<_>>(),
        );
        if let Ok(u) = fresh {
            ws.reuse(u);
        }
        if let Ok(u) = abs.abstract_network_ws(
            &controller,
            &TmVector::from_box(&warm_box),
            &domain,
            &mut ws,
        ) {
            ws.reuse(u);
        }
        let warm = abs.abstract_network_ws(&controller, &state, &domain, &mut ws);
        if let Some(v) = same_abstraction(&want, &warm, "warm", &state_box) {
            return v;
        }
        verdict
    }
}

/// `None` when the new abstraction returned what the retired one did: both
/// refused, or the same term keys, coefficient bits and remainder bits in
/// every output model.
fn same_abstraction(
    want: &Result<TmVector, ReachError>,
    got: &Result<TmVector, ReachError>,
    workspace: &str,
    state_box: &IntervalBox,
) -> Option<CaseOutcome> {
    let (want, got) = match (want, got) {
        (Err(_), Err(_)) => return None,
        (Ok(w), Ok(g)) => (w, g),
        (w, g) => {
            return Some(CaseOutcome::Violation(format!(
                "Bernstein abstraction on a {workspace} workspace returned {}, the reference \
                 {} (box {state_box:?})",
                if g.is_ok() { "a model" } else { "an error" },
                if w.is_ok() { "a model" } else { "an error" },
            )))
        }
    };
    if want.dim() != got.dim() {
        return Some(CaseOutcome::Violation(format!(
            "Bernstein abstraction on a {workspace} workspace has {} outputs, the reference {}",
            got.dim(),
            want.dim()
        )));
    }
    for (o, (w, g)) in want.components().iter().zip(got.components()).enumerate() {
        let rem_bits =
            |t: &TaylorModel| (t.remainder().lo().to_bits(), t.remainder().hi().to_bits());
        if !g.poly().bits_eq(w.poly()) || rem_bits(g) != rem_bits(w) {
            return Some(CaseOutcome::Violation(format!(
                "Bernstein abstraction output {o} on a {workspace} workspace differs from the \
                 reference: {} + {} vs {} + {} (box {state_box:?})",
                terms(g.poly()),
                g.remainder(),
                terms(w.poly()),
                w.remainder()
            )));
        }
    }
    None
}

/// Abstracts `controller` over `state_box` with one back-end and checks the
/// enclosure at five sampled points.
fn enclosure(
    controller: &NnController,
    state_box: &IntervalBox,
    use_taylor: bool,
    order: u32,
    next: &mut impl FnMut() -> u64,
) -> CaseOutcome {
    let in_dim = state_box.dim();
    let state = TmVector::from_box(state_box);
    let domain = unit_domain(in_dim);
    let out = if use_taylor {
        TaylorAbstraction::with_order(order).abstract_network(controller, &state, &domain)
    } else {
        BernsteinAbstraction::with_degree(order).abstract_network(controller, &state, &domain)
    };
    let out = match out {
        Ok(o) => o,
        // Refusing to abstract is sound.
        Err(_) => return CaseOutcome::Skip,
    };
    let mids = state_box.center();
    let rads = state_box.radii();
    for _ in 0..5 {
        let t: Vec<f64> = (0..in_dim).map(|_| f64_in(next(), -1.0, 1.0)).collect();
        let x: Vec<f64> = (0..in_dim).map(|i| mids[i] + rads[i] * t[i]).collect();
        let y = controller.network().forward(&x);
        for (j, &yj) in y.iter().enumerate() {
            let yj = yj * controller.output_scale();
            if yj.is_nan() {
                return CaseOutcome::Skip;
            }
            let enc = out.component(j).eval(&t);
            if !enc.inflate(super::oracle_tol(yj)).contains_value(yj) {
                let kind = if use_taylor { "Taylor" } else { "Bernstein" };
                return CaseOutcome::Violation(format!(
                    "{kind} abstraction output {j} [{:e}, {:e}] excludes forward value \
                     {yj:e} at x = {x:?} (box {state_box:?})",
                    enc.lo(),
                    enc.hi()
                ));
            }
        }
    }
    CaseOutcome::Pass
}

/// A polynomial's terms with coefficient bits, for violation messages.
fn terms(p: &Polynomial) -> String {
    let parts: Vec<String> = p
        .iter()
        .map(|(e, c)| format!("{:?}:{:#018x}", e.as_slice(), c.to_bits()))
        .collect();
    format!("[{}]", parts.join(" "))
}

/// The controller-change differential of one case (see the module doc):
/// `None` when the abstraction on a workspace warmed by another controller
/// of the same shape returned the reference's models.
fn controller_change(seed: u64) -> Option<CaseOutcome> {
    let mut rng = CheckRng::new(seed ^ 0x0C7B_C4A1_0000_0000);
    let mut next = || rng.next_u64();
    let in_dim = 1 + (next() as usize) % 4;
    let out_dim = 1 + (next() as usize) % 2;
    let net = network(&mut next, in_dim, out_dim, 2, 4);
    let first_len = net.layers().first().map_or(0, dwv_nn::Layer::num_params);
    // Redraw the first layer, the later layers or every parameter.
    let redraw = next() % 3;
    let params: Vec<f64> = net
        .params()
        .into_iter()
        .enumerate()
        .map(|(i, p)| match (redraw, i < first_len) {
            (0, true) | (1, false) | (2, _) => f64_in(next(), -1.0, 1.0),
            _ => p,
        })
        .collect();
    let mut other = net.clone();
    other.set_params(&params);
    let scale = f64_in(next(), 0.5, 4.0);
    let controller = NnController::with_output_scale(net, scale);
    let other = NnController::with_output_scale(other, scale);
    let center: Vec<f64> = (0..in_dim).map(|_| f64_in(next(), -0.5, 0.5)).collect();
    let radius: Vec<f64> = (0..in_dim)
        .map(|_| 0.05 + 0.25 * unit_f64(next()))
        .collect();
    let state_box = IntervalBox::from_center_radius(&center, &radius);
    let abs = BernsteinAbstraction {
        degree: 1 + (next() % 3) as u32,
        samples_per_dim: 1 + (next() as usize) % 9,
        compose_order: 1 + (next() % 8) as u32,
    };
    let state = TmVector::from_box(&state_box);
    let domain = unit_domain(in_dim);
    let want = reference::bernstein_abstraction(
        &controller,
        &state,
        &domain,
        abs.degree,
        abs.samples_per_dim,
        abs.compose_order,
    );
    let mut ws = TmWorkspace::new();
    if let Ok(u) = abs.abstract_network_ws(&other, &state, &domain, &mut ws) {
        ws.reuse(u);
    }
    let got = abs.abstract_network_ws(&controller, &state, &domain, &mut ws);
    same_abstraction(&want, &got, "differently warmed", &state_box)
}

/// The composition differential of one case (see the module doc): `None`
/// when `compose_parts_into` returned the reference's model on a fresh and
/// on a warm workspace.
fn composition(seed: u64) -> Option<CaseOutcome> {
    let mut rng = CheckRng::new(seed ^ 0xC0A7_05E0_0000_0000);
    let mut next = || rng.next_u64();
    let n = 1 + (next() % 4) as usize;
    let nvars = n + (next() % 2) as usize;
    let g = fit_shaped(&mut next, n);
    let args = affine_args(&mut next, n, nvars);
    let order = 1 + (next() % 8) as u32;
    let domain = shifted_domain(&mut next, nvars);
    let remainder = Interval::symmetric(1e-3 * unit_f64(next()));
    // The warm-up: either another number of arguments with its own
    // polynomial, domain and order, or this polynomial, domain and order
    // on the arguments halved (a box re-initialised step after another).
    let (warm_g, warm_args, warm_domain, warm_order) = if next().is_multiple_of(2) {
        let warm_n = 1 + (n + 1 + (next() % 2) as usize) % 4;
        let warm_vars = warm_n + (next() % 2) as usize;
        (
            fit_shaped(&mut next, warm_n),
            affine_args(&mut next, warm_n, warm_vars),
            shifted_domain(&mut next, warm_vars),
            1 + (next() % 8) as u32,
        )
    } else {
        let halved = args.iter().map(|a| a.scale(0.5)).collect();
        (g.clone(), halved, domain.clone(), order)
    };

    let mut ws = TmWorkspace::new();
    let want = reference::compose_parts(&g, remainder, &args, order, &domain, &mut ws);
    let mut ws = TmWorkspace::new();
    let mut got = TaylorModel::default();
    compose_parts_into(&g, remainder, &args, order, &domain, &mut got, &mut ws);
    let shape = || {
        format!(
            "g = {}, args = [{}], order {order}, domain {domain:?}",
            terms(&g),
            args.iter()
                .map(|a| format!("{} + {:?}", terms(a.poly()), a.remainder()))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    if let Some(diff) = model_diff(&got, &want) {
        return Some(CaseOutcome::Violation(format!(
            "composition on a fresh workspace differs from the reference: {diff} ({})",
            shape()
        )));
    }
    let mut scratch = TaylorModel::default();
    compose_parts_into(
        &warm_g,
        remainder,
        &warm_args,
        warm_order,
        &warm_domain,
        &mut scratch,
        &mut ws,
    );
    compose_parts_into(&g, remainder, &args, order, &domain, &mut got, &mut ws);
    model_diff(&got, &want).map(|diff| {
        CaseOutcome::Violation(format!(
            "composition on a warm workspace differs from the reference: {diff} ({})",
            shape()
        ))
    })
}

/// A Bernstein-fit-shaped polynomial in `n` variables: every monomial up
/// to a per-axis degree of 1–3 with probability 4/5, coefficients mostly
/// ordinary, some at or below the `1e-14` pruning threshold.
fn fit_shaped(next: &mut impl FnMut() -> u64, n: usize) -> Polynomial {
    let degree = 1 + (next() % 3) as u32;
    let mut terms = Vec::new();
    let mut exps = vec![0u32; n];
    loop {
        if !next().is_multiple_of(5) {
            let c = match next() % 10 {
                0 => 1e-14,
                1 => f64_in(next(), -1e-14, 1e-14),
                _ => f64_in(next(), -4.0, 4.0),
            };
            terms.push((exps.clone(), c));
        }
        let Some(v) = (0..n).rev().find(|&v| exps[v] < degree) else {
            break;
        };
        exps[v] += 1;
        for e in &mut exps[v + 1..] {
            *e = 0;
        }
    }
    Polynomial::from_terms(n, terms)
}

/// `n` arguments over `nvars ≥ n` variables. Each is `a + b·t_v` in a
/// variable of its own (a random injection), the constant absent, tiny
/// (its powers' low terms fall below the pruning threshold) or ordinary,
/// the remainder zero, one subnormal quantum each side (the outward
/// rounding of `ZERO · point(1/r)`, what box re-initialisation produces)
/// or `1e-3`-scale. One case in four makes one argument quadratic,
/// two-variable or a second argument in an already used variable.
fn affine_args(next: &mut impl FnMut() -> u64, n: usize, nvars: usize) -> Vec<TaylorModel> {
    let mut vars: Vec<usize> = (0..nvars).collect();
    for i in (1..nvars).rev() {
        vars.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mut args: Vec<TaylorModel> = (0..n)
        .map(|i| {
            let a = match next() % 3 {
                0 => 0.0,
                1 => f64_in(next(), -1e-14, 1e-14),
                _ => f64_in(next(), -0.5, 0.5),
            };
            let b = f64_in(next(), 0.2, 1.5) * if next().is_multiple_of(2) { 1.0 } else { -1.0 };
            let rem = match next() % 3 {
                0 => Interval::ZERO,
                1 => Interval::ZERO * Interval::point(1.0 / b),
                _ => Interval::symmetric(1e-3 * unit_f64(next())),
            };
            let mut p = Polynomial::zero(nvars);
            p.set_affine(nvars, a, vars[i], b);
            TaylorModel::new(p, rem)
        })
        .collect();
    if next().is_multiple_of(4) {
        let i = (next() as usize) % n;
        let c = f64_in(next(), -0.5, 0.5);
        let mut exps = vec![0u32; nvars];
        match next() % 3 {
            // `vars` is a permutation, so this is another variable.
            1 if nvars > 1 => exps[vars[(i + 1) % nvars]] = 1,
            2 if n > 1 => args[(i + 1) % n] = args[i].scale(0.5),
            _ => exps[vars[i]] = 2,
        }
        if exps.iter().any(|&e| e > 0) {
            let extra = Polynomial::from_terms(nvars, [(exps, c)]);
            args[i] = args[i].add(&TaylorModel::new(extra, Interval::ZERO));
        }
    }
    args
}

/// The unit domain over `nvars` variables, with one axis in three shifted
/// to another bounded interval.
fn shifted_domain(next: &mut impl FnMut() -> u64, nvars: usize) -> Vec<Interval> {
    (0..nvars)
        .map(|_| match next() % 3 {
            0 => Interval::new(f64_in(next(), -2.0, -0.1), f64_in(next(), 0.1, 2.0)),
            _ => Interval::new(-1.0, 1.0),
        })
        .collect()
}

/// The bit-level difference between two models, if any.
fn model_diff(got: &TaylorModel, want: &TaylorModel) -> Option<String> {
    let rem_bits = |t: &TaylorModel| (t.remainder().lo().to_bits(), t.remainder().hi().to_bits());
    (!got.poly().bits_eq(want.poly()) || rem_bits(got) != rem_bits(want)).then(|| {
        format!(
            "{} + {:?} vs {} + {:?}",
            terms(got.poly()),
            got.remainder(),
            terms(want.poly()),
            want.remainder()
        )
    })
}
