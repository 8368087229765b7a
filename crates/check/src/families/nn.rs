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
//!   box.

use super::{case_rng, CaseOutcome, Family};
use crate::reference;
use dwv_dynamics::NnController;
use dwv_interval::arbitrary::{f64_in, unit_f64};
use dwv_interval::{Interval, IntervalBox};
use dwv_nn::arbitrary::network;
use dwv_poly::Polynomial;
use dwv_reach::{BernsteinAbstraction, NnAbstraction, ReachError, TaylorAbstraction};
use dwv_taylor::{unit_domain, TaylorModel, TmVector, TmWorkspace};

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
         retired Bernstein fit, remainder loop and whole abstraction, bit for bit"
    }

    fn check(&self, seed: u64, size: u8) -> CaseOutcome {
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
