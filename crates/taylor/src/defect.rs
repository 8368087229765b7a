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

use crate::model::{TaylorModel, TmVector, DEFAULT_PRUNE_EPS};
use crate::ode::OdeRhs;
use dwv_interval::Interval;
use dwv_poly::bernstein::RangeCache;
use dwv_poly::{PolyWorkspace, Polynomial};

/// One remainder-propagation step. Slot indices refer to the replay buffer;
/// slots `0..n_state` hold the trial state remainders, the following
/// `n_input` slots the (fixed) held-input remainders, and every op writes a
/// slot of its own except `Add`/`AddConst`, which accumulate.
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
///
/// One tape lives in the flow step's workspace and is recompiled in place
/// every step: its vectors, its power tables and their polynomials keep
/// their storage, so a warm compile and its replays allocate nothing.
#[derive(Debug)]
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
    /// Polynomials the compile fills.
    scratch: CompileScratch,
    /// The replay buffer.
    slots: Vec<Interval>,
}

impl Default for DefectTape {
    fn default() -> Self {
        Self {
            ops: Vec::new(),
            n_slots: 0,
            n_state: 0,
            u_rems: Vec::new(),
            field_slots: Vec::new(),
            x0_rems: Vec::new(),
            diff_ranges: Vec::new(),
            t_scale: Interval::ZERO,
            delta_pt: Interval::ZERO,
            fixed_point: false,
            scratch: CompileScratch::default(),
            slots: Vec::new(),
        }
    }
}

/// The polynomials of a compile. The power tables only grow, and a compile
/// uses a prefix of each.
#[derive(Debug, Default)]
struct CompileScratch {
    /// Per-argument largest exponent in the field.
    max_exp: Vec<u32>,
    /// `pows[i][e - 1]`: argument `i` to the power `e`.
    pows: Vec<Vec<Node>>,
    /// The product chain of the current term.
    term: Node,
    /// The chain's next product.
    next: Node,
    /// A component's composed field.
    acc: Polynomial,
    /// `x0 + δ∫f` of a component, then its defect.
    mapped: Polynomial,
    /// `mapped` truncated and pruned as an iteration would.
    image: Polynomial,
}

impl DefectTape {
    /// Runs the Picard operator's composition once over the candidate
    /// polynomials (zero remainders), recording the remainder dataflow and
    /// every polynomial-derived interval constant. `args` holds the `n`
    /// candidate polynomials followed by the `m` held-input polynomials and
    /// `x0e` the initial-state polynomials, all over the extended variables;
    /// the tape freezes the remainders of `x0` and `u`. With
    /// `check_fixed_point` it also compares the candidate's next polynomial
    /// iterate with the candidate (see [`DefectTape::reproduces_candidate`]).
    #[allow(clippy::too_many_arguments)]
    #[expect(
        clippy::indexing_slicing,
        reason = "t_var is constructed by the caller as an index into dom_ext; i < nvars == max_exp.len by construction"
    )]
    pub(crate) fn compile(
        &mut self,
        order: u32,
        bernstein_ranges: bool,
        check_fixed_point: bool,
        args: &[Polynomial],
        x0e: &[Polynomial],
        x0: &TmVector,
        u: &TmVector,
        rhs: &OdeRhs,
        delta: f64,
        t_var: usize,
        dom_ext: &[Interval],
        ws: &mut PolyWorkspace,
        bern: &mut RangeCache,
    ) {
        let n = rhs.n_state();
        let nargs = n + rhs.n_input();
        assert!(
            dom_ext[t_var].lo() >= 0.0,
            "antiderivative requires a zero-based time domain"
        );
        assert_eq!(args.len(), nargs, "argument count mismatch");
        let out_vars = args.first().map_or(dom_ext.len(), Polynomial::nvars);
        let CompileScratch {
            max_exp,
            pows,
            term,
            next,
            acc,
            mapped,
            image,
        } = &mut self.scratch;
        let ops = &mut self.ops;
        ops.clear();

        // Shared power tables pows[i][e-1] = (poly of args[i]^e, slot). The
        // reference builds a table per field component; the entries are pure
        // functions of the argument polynomials, so sharing one table yields
        // the same values for every use site.
        max_exp.clear();
        max_exp.resize(nargs, 0);
        for p in rhs.field() {
            for (exps, _) in p.iter() {
                for (i, &e) in exps.iter().enumerate() {
                    max_exp[i] = max_exp[i].max(e);
                }
            }
        }
        let mut total_slots = nargs;
        if pows.len() < nargs {
            pows.resize_with(nargs, Vec::new);
        }
        for (i, ((&me, arg), table)) in max_exp.iter().zip(args).zip(pows.iter_mut()).enumerate() {
            let me = me as usize;
            if table.len() < me {
                table.resize_with(me, Node::default);
            }
            let Some((first, higher)) = table.get_mut(..me).and_then(<[Node]>::split_first_mut)
            else {
                continue;
            };
            // args[i]^1 is the argument itself; its remainder is input i.
            first.poly.clone_from(arg);
            first.reset(i as u32);
            for e in 1..me {
                let range_r = first.range(dom_ext, ws);
                let (done, rest) = higher.split_at_mut(e - 1);
                let range_l = match done.last_mut() {
                    Some(prev) => prev.range(dom_ext, ws),
                    None => range_r,
                };
                let Some(power) = rest.first_mut() else {
                    continue;
                };
                mul_node(
                    done.last().unwrap_or(first),
                    range_l,
                    first,
                    range_r,
                    order,
                    dom_ext,
                    ops,
                    &mut total_slots,
                    power,
                    ws,
                );
            }
        }

        // Per-component composition, mirroring `compose_parts_ws` term by
        // term, plus the fixed polynomial defect.
        self.field_slots.clear();
        self.diff_ranges.clear();
        let mut fixed_point = check_fixed_point;
        for ((p, cand), x0c) in rhs.field().iter().zip(args).zip(x0e) {
            let acc_slot = total_slots as u32;
            total_slots += 1;
            acc.set_constant(out_vars, 0.0);
            for (exps, c) in p.iter() {
                let mut started = false;
                for (i, &e) in exps.iter().enumerate() {
                    if e == 0 {
                        continue;
                    }
                    #[expect(clippy::indexing_slicing, reason = "max_exp[i] >= e by construction")]
                    let pw = &mut pows[i][e as usize - 1];
                    if started {
                        let range_l = term.range(dom_ext, ws);
                        let range_r = pw.range(dom_ext, ws);
                        mul_node(
                            term,
                            range_l,
                            pw,
                            range_r,
                            order,
                            dom_ext,
                            ops,
                            &mut total_slots,
                            next,
                            ws,
                        );
                        std::mem::swap(term, next);
                    } else {
                        // Constant × power fast path: scale + prune.
                        pw.poly.scale_into(c, &mut term.poly);
                        let prune = term.poly.prune_in_place(DEFAULT_PRUNE_EPS, dom_ext);
                        let dst = total_slots as u32;
                        total_slots += 1;
                        ops.push(TapeOp::Scale {
                            dst,
                            src: pw.slot,
                            c,
                            prune,
                        });
                        term.reset(dst);
                        started = true;
                    }
                }
                if started {
                    acc.add_assign_ref(&term.poly, ws);
                    ops.push(TapeOp::Add {
                        dst: acc_slot,
                        src: term.slot,
                    });
                } else {
                    acc.add_constant_assign(c, ws);
                    ops.push(TapeOp::AddConst {
                        dst: acc_slot,
                        v: Interval::ZERO,
                    });
                }
            }
            self.field_slots.push(acc_slot);

            // Fixed polynomial defect: poly(x0 + δ∫f(candidate)) − candidate.
            acc.antiderivative_into(t_var, mapped);
            mapped.scale_in_place(delta);
            mapped.add_assign_ref(x0c, ws);
            // Truncated and pruned as a Picard iteration does, `mapped` is
            // the candidate's next polynomial iterate: the accounting
            // products keep the coefficients the dropping ones keep.
            if fixed_point {
                image.clone_from(mapped);
                image.truncate_dropping(order);
                image.prune_dropping(DEFAULT_PRUNE_EPS);
                fixed_point = image.bits_eq(cand);
            }
            mapped.add_scaled_assign(cand, -1.0, ws);
            let diff_range = if bernstein_ranges && !mapped.is_zero() {
                bern.range_enclosure(mapped, dom_ext)
            } else {
                mapped.eval_interval_ws(dom_ext, ws)
            };
            self.diff_ranges.push(diff_range);
        }

        self.n_slots = total_slots;
        self.n_state = n;
        self.u_rems.clear();
        self.u_rems
            .extend(u.components().iter().map(TaylorModel::remainder));
        self.x0_rems.clear();
        self.x0_rems
            .extend(x0.components().iter().map(TaylorModel::remainder));
        self.t_scale = Interval::new(0.0, dom_ext[t_var].hi());
        self.delta_pt = Interval::point(delta);
        self.fixed_point = fixed_point;
    }

    /// Whether one more polynomial Picard iteration (composition truncated
    /// at `order`, tails dropped) maps the candidate to itself bit for bit —
    /// the fixed-point check the iteration loop would otherwise spend a
    /// full iteration on. `false` when the tape was compiled without the
    /// check.
    pub(crate) fn reproduces_candidate(&self) -> bool {
        self.fixed_point
    }

    /// Evaluates the defect map on trial state remainders into `out`: what
    /// the Picard operator maps `candidate` to, bit-identical to re-running
    /// the Taylor-model reference evaluation with these remainders.
    #[expect(
        clippy::indexing_slicing,
        reason = "slot indices are tape invariants: n_state <= n_slots and the input slots are allocated at compile time"
    )]
    pub(crate) fn replay(&mut self, candidate: &[Interval], out: &mut Vec<Interval>) {
        assert_eq!(
            candidate.len(),
            self.n_state,
            "candidate dimension mismatch"
        );
        let slots = &mut self.slots;
        slots.clear();
        slots.resize(self.n_slots, Interval::ZERO);
        slots[..self.n_state].copy_from_slice(candidate);
        slots[self.n_state..self.n_state + self.u_rems.len()].copy_from_slice(&self.u_rems);
        for op in &self.ops {
            match *op {
                TapeOp::Scale { dst, src, c, prune } => {
                    let mut rem = slots[src as usize] * Interval::point(c);
                    if let Some(p) = prune {
                        rem += p;
                    }
                    slots[dst as usize] = rem;
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
                    let il = slots[l as usize];
                    let ir = slots[r as usize];
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
                    slots[dst as usize] = rem;
                }
                TapeOp::Add { dst, src } => {
                    let s = slots[src as usize];
                    slots[dst as usize] += s;
                }
                TapeOp::AddConst { dst, v } => {
                    slots[dst as usize] += v;
                }
            }
        }
        let (t_scale, delta_pt) = (self.t_scale, self.delta_pt);
        out.clear();
        out.extend(
            self.field_slots
                .iter()
                .zip(self.x0_rems.iter().zip(&self.diff_ranges))
                .map(|(&s, (&x0r, &dr))| {
                    // ∫: ×[0, sup t]; δ-scale: ×point(δ); + x0 remainder; +
                    // fixed polynomial defect — the exact op order of the
                    // reference.
                    let fi = slots[s as usize];
                    fi * t_scale * delta_pt + x0r + dr // dwv-lint: allow(float-hygiene) -- Interval-typed operator; directed rounding lives in the interval kernel
                }),
        );
    }
}

/// A power-table entry or product-chain term: its polynomial, the replay
/// slot of its remainder, and its range over the domain once a product has
/// needed it (a pure function of the polynomial, so computing it once per
/// entry instead of once per use changes no bit).
#[derive(Debug, Default)]
struct Node {
    poly: Polynomial,
    slot: u32,
    range: Option<Interval>,
}

impl Node {
    /// Marks the node's polynomial as new: its remainder lives in `slot`,
    /// and its range is not known yet.
    fn reset(&mut self, slot: u32) {
        self.slot = slot;
        self.range = None;
    }

    /// The polynomial's interval range over `dom`, evaluated on first use.
    fn range(&mut self, dom: &[Interval], ws: &mut PolyWorkspace) -> Interval {
        *self
            .range
            .get_or_insert_with(|| self.poly.eval_interval_ws(dom, ws))
    }
}

/// Emits the tape op for a truncated product `l · r` (whose factors have the
/// given ranges) into `ops`, taking the next of `n_slots` slots, and writes
/// the product node, pruned as the reference leaves it, to `out`.
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
    out: &mut Node,
    ws: &mut PolyWorkspace,
) {
    let overflow = l
        .poly
        .mul_truncated_into(&r.poly, order, dom, &mut out.poly, ws);
    let prune = out.poly.prune_in_place(DEFAULT_PRUNE_EPS, dom);
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
    out.reset(dst);
}
