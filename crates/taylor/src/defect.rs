//! Compile-once / replay-many Picard defect evaluation.
//!
//! Remainder validation applies the full (interval-carrying) Picard operator
//! to the *same* candidate polynomial several times, varying only the trial
//! remainder intervals. Every polynomial quantity involved — the truncated
//! products, their overflow and pruning tails, the partial-product ranges
//! that multiply the remainders — is a pure function of the candidate
//! polynomials and therefore repeats bit-for-bit across attempts. The
//! [`DefectTape`] factors the evaluation accordingly:
//!
//! * [`DefectTape::compile`] runs the field composition **once** through the
//!   accounting kernels, freezing each fixed interval constant and recording
//!   the dataflow of the remainder propagation as a short op tape;
//! * [`DefectTape::replay`] maps a vector of trial remainders to the defect
//!   intervals by interpreting the tape — a few dozen interval operations,
//!   no polynomial arithmetic at all.
//!
//! Replay is **bit-identical** to re-running the Taylor-model evaluation:
//! each op performs exactly the interval operations, in the same order and
//! with the same exact-zero skips, that [`TaylorModel::mul_truncated`],
//! [`TaylorModel::scale`] + prune, and the composition accumulator perform —
//! only with the polynomial-derived operands precomputed. Soundness is
//! therefore inherited from the reference evaluation rather than argued
//! anew; the `flowpipe` tests check the equivalence against the retained
//! reference implementation bit for bit.

use crate::model::{TaylorModel, TmVector, TmWorkspace, DEFAULT_PRUNE_EPS};
use crate::ode::OdeRhs;
use dwv_interval::Interval;
use dwv_poly::Polynomial;

/// One remainder-propagation step. Slot indices refer to the replay buffer;
/// slots `0..n_state` hold the trial state remainders, the following
/// `n_input` slots the (fixed) held-input remainders, and every op writes a
/// freshly allocated slot except `Add`/`AddConst`, which accumulate.
#[derive(Debug, Clone)]
enum TapeOp {
    /// `slots[dst] = slots[src] · point(c) (+ prune)` — the constant × power
    /// fast path of the composition (`scale` followed by `prune_in_place`).
    Scale {
        dst: u32,
        src: u32,
        c: f64,
        prune: Option<Interval>,
    },
    /// The remainder half of a truncated product `l · r`: starts from the
    /// frozen overflow range, adds the cross terms for non-zero inputs (the
    /// same exact-zero skips as [`TaylorModel::mul_truncated`]), then the
    /// frozen pruning tail.
    Mul {
        dst: u32,
        l: u32,
        r: u32,
        range_l: Interval,
        range_r: Interval,
        overflow: Interval,
        prune: Option<Interval>,
    },
    /// `slots[dst] += slots[src]` — a term flowing into the accumulator.
    Add { dst: u32, src: u32 },
    /// `slots[dst] += v` — a constant-only term (v is the zero interval; the
    /// op is kept so replay performs the accumulator's outward-rounded add
    /// exactly as the reference does).
    AddConst { dst: u32, v: Interval },
}

/// The frozen remainder-propagation structure of one flow step's Picard
/// defect map (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct DefectTape {
    ops: Vec<TapeOp>,
    n_slots: usize,
    n_state: usize,
    /// Held-input remainders (fixed across validation attempts).
    u_rems: Vec<Interval>,
    /// Per state component: the slot holding the composed field remainder.
    field_slots: Vec<u32>,
    /// Per state component: the initial-state remainder.
    x0_rems: Vec<Interval>,
    /// Per state component: the range of the fixed polynomial defect
    /// `poly(x0 + δ∫f(candidate)) − candidate`.
    diff_ranges: Vec<Interval>,
    /// `[0, sup t]` — the antiderivative's remainder factor.
    t_scale: Interval,
    /// `point(δ)` — the step-length remainder factor.
    delta_pt: Interval,
    /// Whether the candidate was checked and found to be a fixed point of
    /// the polynomial Picard iteration (see
    /// [`DefectTape::reproduces_candidate`]).
    fixed_point: bool,
}

impl DefectTape {
    /// Runs the Picard operator's composition once over the candidate
    /// polynomials (zero remainders), recording the remainder dataflow and
    /// every polynomial-derived interval constant. With `check_fixed_point`
    /// it also compares the candidate's next polynomial iterate with the
    /// candidate (see [`DefectTape::reproduces_candidate`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn compile(
        order: u32,
        bernstein_ranges: bool,
        check_fixed_point: bool,
        polys: &[TaylorModel],
        x0e: &TmVector,
        ue: &TmVector,
        rhs: &OdeRhs,
        delta: f64,
        t_var: usize,
        dom_ext: &[Interval],
        ws: &mut TmWorkspace,
    ) -> Self {
        let n = rhs.n_state();
        let m = rhs.n_input();
        let nargs = n + m;
        assert!(
            dom_ext[t_var].lo() >= 0.0, // dwv-lint: allow(panic-freedom#index) -- t_var constructed by the caller as an index into dom_ext
            "antiderivative requires a zero-based time domain"
        );
        let arg_polys: Vec<&Polynomial> = polys
            .iter()
            .map(TaylorModel::poly)
            .chain(ue.components().iter().map(TaylorModel::poly))
            .collect();
        let out_vars = arg_polys.first().map_or(dom_ext.len(), |p| p.nvars());

        let mut ops: Vec<TapeOp> = Vec::new();

        // Shared power tables pows[i][e-1] = (poly of args[i]^e, slot). The
        // reference builds a table per field component; the entries are pure
        // functions of the argument polynomials, so sharing one table yields
        // the same values for every use site.
        let mut max_exp = vec![0u32; nargs];
        for p in rhs.field() {
            for (exps, _) in p.iter() {
                for (i, &e) in exps.iter().enumerate() {
                    max_exp[i] = max_exp[i].max(e); // dwv-lint: allow(panic-freedom#index) -- i < nvars == max_exp.len by construction
                }
            }
        }
        let mut total_slots = nargs;
        let mut pows: Vec<Vec<Node>> = Vec::with_capacity(nargs);
        for (i, (&me, &arg)) in max_exp.iter().zip(&arg_polys).enumerate() {
            let mut table: Vec<Node> = Vec::with_capacity(me as usize);
            if me >= 1 {
                // args[i]^1 is the argument itself; its remainder is input i.
                table.push(Node::new(arg.clone(), i as u32));
                for e in 1..me as usize {
                    let range_r = table[0].range(dom_ext, ws); // dwv-lint: allow(panic-freedom#index) -- the argument entry was pushed above
                    let range_l = table[e - 1].range(dom_ext, ws); // dwv-lint: allow(panic-freedom#index) -- the table holds e entries here
                    let node = mul_node(
                        &table[e - 1], // dwv-lint: allow(panic-freedom#index) -- the table holds e entries here
                        range_l,
                        &table[0], // dwv-lint: allow(panic-freedom#index) -- the argument entry was pushed above
                        range_r,
                        order,
                        dom_ext,
                        &mut ops,
                        &mut total_slots,
                        ws,
                    );
                    table.push(node);
                }
            }
            pows.push(table);
        }

        // Per-component composition, mirroring `compose_parts_ws` term by
        // term, plus the fixed polynomial defect.
        let mut field_slots = Vec::with_capacity(n);
        let mut diff_ranges = Vec::with_capacity(n);
        let mut fixed_point = check_fixed_point;
        for ((p, cand), x0c) in rhs.field().iter().zip(polys).zip(x0e.components()) {
            let acc_slot = {
                let s = total_slots as u32;
                total_slots += 1;
                s
            };
            let mut acc_poly = Polynomial::zero(out_vars);
            for (exps, c) in p.iter() {
                let mut chain: Option<Node> = None;
                for (i, &e) in exps.iter().enumerate() {
                    if e > 0 {
                        let pw = &mut pows[i][e as usize - 1]; // dwv-lint: allow(panic-freedom#index) -- max_exp[i] >= e by construction
                        chain = Some(match chain {
                            None => {
                                // Constant × power fast path: scale + prune.
                                let mut t = pw.poly.scale(c);
                                let prune = t.prune_in_place(DEFAULT_PRUNE_EPS, dom_ext);
                                let dst = total_slots as u32;
                                total_slots += 1;
                                ops.push(TapeOp::Scale {
                                    dst,
                                    src: pw.slot,
                                    c,
                                    prune,
                                });
                                Node::new(t, dst)
                            }
                            Some(mut t) => {
                                let range_l = t.range(dom_ext, ws);
                                let range_r = pw.range(dom_ext, ws);
                                mul_node(
                                    &t,
                                    range_l,
                                    pw,
                                    range_r,
                                    order,
                                    dom_ext,
                                    &mut ops,
                                    &mut total_slots,
                                    ws,
                                )
                            }
                        });
                    }
                }
                match chain {
                    Some(t) => {
                        acc_poly.add_assign_ref(&t.poly, &mut ws.poly);
                        ops.push(TapeOp::Add {
                            dst: acc_slot,
                            src: t.slot,
                        });
                    }
                    None => {
                        acc_poly.add_assign_ref(&Polynomial::constant(out_vars, c), &mut ws.poly);
                        ops.push(TapeOp::AddConst {
                            dst: acc_slot,
                            v: Interval::ZERO,
                        });
                    }
                }
            }
            field_slots.push(acc_slot);

            // Fixed polynomial defect: poly(x0 + δ∫f(candidate)) − candidate.
            let mut mapped = acc_poly.antiderivative(t_var);
            mapped.scale_in_place(delta);
            mapped.add_assign_ref(x0c.poly(), &mut ws.poly);
            // Truncated and pruned as a Picard iteration does, `mapped` is
            // the candidate's next polynomial iterate: the accounting
            // products keep the coefficients the dropping ones keep.
            if fixed_point {
                let mut image = mapped.clone();
                image.truncate_dropping(order);
                image.prune_dropping(DEFAULT_PRUNE_EPS);
                fixed_point = image.bits_eq(cand.poly());
            }
            mapped.add_scaled_assign(cand.poly(), -1.0, &mut ws.poly);
            let diff_range = if bernstein_ranges && !mapped.is_zero() {
                ws.bern.range_enclosure(&mapped, dom_ext)
            } else {
                mapped.eval_interval_ws(dom_ext, &mut ws.poly)
            };
            diff_ranges.push(diff_range);
        }

        DefectTape {
            ops,
            n_slots: total_slots,
            n_state: n,
            u_rems: ue.components().iter().map(TaylorModel::remainder).collect(),
            field_slots,
            x0_rems: x0e
                .components()
                .iter()
                .map(TaylorModel::remainder)
                .collect(),
            diff_ranges,
            t_scale: Interval::new(0.0, dom_ext[t_var].hi()), // dwv-lint: allow(panic-freedom#index) -- t_var checked against dom_ext above
            delta_pt: Interval::point(delta),
            fixed_point,
        }
    }

    /// Whether one more polynomial Picard iteration (composition truncated
    /// at `order`, tails dropped) maps the candidate to itself bit for bit —
    /// the fixed-point check the iteration loop would otherwise spend a
    /// full iteration on. `false` when the tape was compiled without the
    /// check.
    pub(crate) fn reproduces_candidate(&self) -> bool {
        self.fixed_point
    }

    /// Evaluates the defect map on trial state remainders: what the Picard
    /// operator maps `candidate` to, bit-identical to re-running the
    /// Taylor-model reference evaluation with these remainders.
    pub(crate) fn replay(&self, candidate: &[Interval]) -> Vec<Interval> {
        assert_eq!(
            candidate.len(),
            self.n_state,
            "candidate dimension mismatch"
        );
        let mut slots = vec![Interval::ZERO; self.n_slots];
        slots[..self.n_state].copy_from_slice(candidate); // dwv-lint: allow(panic-freedom#index) -- n_state ≤ n_slots by construction
        slots[self.n_state..self.n_state + self.u_rems.len()].copy_from_slice(&self.u_rems); // dwv-lint: allow(panic-freedom#index) -- input slots allocated at compile time
        for op in &self.ops {
            match *op {
                TapeOp::Scale { dst, src, c, prune } => {
                    let mut rem = slots[src as usize] * Interval::point(c); // dwv-lint: allow(float-hygiene, panic-freedom#index) -- Interval-typed operator on tape-invariant slot indices; directed rounding lives in the interval kernel
                    if let Some(p) = prune {
                        rem += p;
                    }
                    slots[dst as usize] = rem; // dwv-lint: allow(panic-freedom#index) -- slot indices are tape invariants
                }
                TapeOp::Mul {
                    dst,
                    l,
                    r,
                    range_l,
                    range_r,
                    overflow,
                    prune,
                } => {
                    let il = slots[l as usize]; // dwv-lint: allow(panic-freedom#index) -- slot indices are tape invariants
                    let ir = slots[r as usize]; // dwv-lint: allow(panic-freedom#index) -- slot indices are tape invariants
                    let mut rem = overflow;
                    // Identical exact-zero skips as `TaylorModel::mul_truncated`.
                    if ir != Interval::ZERO {
                        rem += range_l * ir;
                    }
                    if il != Interval::ZERO {
                        rem += range_r * il;
                        if ir != Interval::ZERO {
                            rem += il * ir;
                        }
                    }
                    if let Some(p) = prune {
                        rem += p;
                    }
                    slots[dst as usize] = rem; // dwv-lint: allow(panic-freedom#index) -- slot indices are tape invariants
                }
                TapeOp::Add { dst, src } => {
                    let s = slots[src as usize]; // dwv-lint: allow(panic-freedom#index) -- slot indices are tape invariants
                    slots[dst as usize] += s; // dwv-lint: allow(float-hygiene, panic-freedom#index) -- Interval-typed operator on tape-invariant slot indices; directed rounding lives in the interval kernel
                }
                TapeOp::AddConst { dst, v } => {
                    slots[dst as usize] += v; // dwv-lint: allow(float-hygiene, panic-freedom#index) -- Interval-typed operator on tape-invariant slot indices; directed rounding lives in the interval kernel
                }
            }
        }
        self.field_slots
            .iter()
            .zip(self.x0_rems.iter().zip(&self.diff_ranges))
            .map(|(&s, (&x0r, &dr))| {
                // ∫: ×[0, sup t]; δ-scale: ×point(δ); + x0 remainder; + fixed
                // polynomial defect — the exact op order of the reference.
                let fi = slots[s as usize]; // dwv-lint: allow(panic-freedom#index) -- slot indices are tape invariants
                fi * self.t_scale * self.delta_pt + x0r + dr // dwv-lint: allow(float-hygiene) -- Interval-typed operator; directed rounding lives in the interval kernel
            })
            .collect()
    }
}

/// A power-table entry or product-chain term: its polynomial, the replay
/// slot of its remainder, and its range over the domain once a product has
/// needed it (a pure function of the polynomial, so computing it once per
/// entry instead of once per use changes no bit).
struct Node {
    poly: Polynomial,
    slot: u32,
    range: Option<Interval>,
}

impl Node {
    fn new(poly: Polynomial, slot: u32) -> Self {
        Self {
            poly,
            slot,
            range: None,
        }
    }

    /// The polynomial's interval range over `dom`, evaluated on first use.
    fn range(&mut self, dom: &[Interval], ws: &mut TmWorkspace) -> Interval {
        *self
            .range
            .get_or_insert_with(|| self.poly.eval_interval_ws(dom, &mut ws.poly))
    }
}

/// Emits the tape op for a truncated product `l · r` (whose factors have the
/// given ranges) and returns the product node, pruned as the reference
/// leaves it.
#[allow(clippy::too_many_arguments)]
fn mul_node(
    l: &Node,
    range_l: Interval,
    r: &Node,
    range_r: Interval,
    order: u32,
    dom: &[Interval],
    ops: &mut Vec<TapeOp>,
    n_slots: &mut usize,
    ws: &mut TmWorkspace,
) -> Node {
    let mut prod = Polynomial::zero(l.poly.nvars());
    let overflow = l
        .poly
        .mul_truncated_into(&r.poly, order, dom, &mut prod, &mut ws.poly);
    let prune = prod.prune_in_place(DEFAULT_PRUNE_EPS, dom);
    let dst = *n_slots as u32;
    *n_slots += 1;
    ops.push(TapeOp::Mul {
        dst,
        l: l.slot,
        r: r.slot,
        range_l,
        range_r,
        overflow,
        prune,
    });
    Node::new(prod, dst)
}
