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
//!   implementation in [`crate::reference`].

use super::{case_rng, CaseOutcome, Family};
use crate::reference;
use dwv_dynamics::NnController;
use dwv_interval::arbitrary::{f64_in, unit_f64};
use dwv_interval::IntervalBox;
use dwv_nn::arbitrary::network;
use dwv_poly::Polynomial;
use dwv_reach::{BernsteinAbstraction, NnAbstraction, TaylorAbstraction};
use dwv_taylor::{unit_domain, TmVector};

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
         retired Bernstein fit and remainder loop, bit for bit"
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
        verdict
    }
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
