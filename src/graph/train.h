// The tape-trace compiler: one compiler for every planned program.
//
// Any network forward built from ag:: ops is recorded under an
// ag::trace::Recording and re-emitted as flat TensorOps against a
// GraphBuilder. There is no per-network capture code: a new network needs
// only its module forward (plus any new ag::trace::OpKind). Two programs
// come out of it:
//
//  * compile_forward — the net's eval-mode forward alone (serving through
//    serve::InferenceSession, trainer validation through
//    NnTrainConfig.planned_eval);
//  * make_planned_step — the whole training step, forward + backward + Adam.
//
// Forward-only programs (compile_forward):
//
//  * record  — run `forward` once under NoGradScope + Recording on a zero
//    probe input of the requested [N, F, T].
//  * compile — emit only the ops that reach the output. Operands resolve to
//    a recorded op's planned value or, for true leaves (Node::op "leaf":
//    parameters, constants such as an LSTM's zero state), to the node
//    itself, baked. An op whose operands are all baked is folded to its
//    probe value (weight_norm becomes the effective conv weight); weight
//    GEMM operands are prepacked once. Anything else unresolved — an op
//    without a trace record — makes the compile decline (nullptr, counted
//    in graph/forward_compile_declined), never bake a probe value.
//  * fuse    — rounding-preserving rewrites, kept only where a measured
//    N=1 forward needed them (DESIGN.md §10): pointwise convs below the GEMM
//    cutoff run a serial kernel (no OpenMP fork, in both modes).
//  * dispatch_n — 1 pins every conv's kernel choice to its N=1 decision, so
//    each row of a batched replay is bit-identical to that window's N=1
//    net.forward (serving); 0 uses the true batch, bit-identical to
//    net.forward on the whole batch (trainer eval).
//
// Training steps (make_planned_step):
//
// The eager training loop rebuilds the autograd tape every batch: node and
// closure allocations, shape checks, dispatch branches, and a buffer-pool
// round trip per intermediate and per gradient. For a fixed batch shape the
// step is completely static, so all of that is capture-time work:
//
//  * probe   — run ONE eager step under an ag::trace::Recording. The probe
//    IS that batch's training step (no duplicated work on fallback); the
//    trace records every forward op and the backward closures' firing order.
//  * compile — re-emit the trace as flat TensorOps against a GraphBuilder:
//    forward values and intermediate gradients share one liveness-planned
//    arena; parameter gradients land in the Adam optimizer's contiguous
//    slab at its own offsets; weight-side GEMM operands are prepacked once
//    per replay and reused across the step (LSTM gate weights are consumed
//    once per timestep in forward and again in backward).
//  * verify  — rewind the dropout RNG streams to their pre-probe state,
//    replay the program on the probe batch, and demand bitwise equality of
//    the loss and of every parameter gradient against the tape's. Only a
//    program that passes is cached; a mismatch pins the shape to the eager
//    path.
//  * replay  — each following batch runs the flat program, then
//    clip_grad_slab + Adam::step_planned over the slab. Bit-identical loss
//    curves vs the eager loop are the contract (tests/test_graph_train.cpp).
//
// Invalidation: nn::Module::weights_version() is recorded at capture and
// checked every step. Out-of-plan parameter mutations (checkpoint restore,
// best-epoch rollback, hot-swap loads) bump it and drop every cached
// program — prepacked operands and captured RNG stream structure die with
// them. In-plan Adam updates do not bump it; packs are refreshed from the
// live parameter tensors at the top of every replay instead.
//
// Escape hatches: RPTCN_DISABLE_PLAN=1 (or set_planning_enabled(false))
// makes step() decline every batch; NnTrainConfig.planned_step=false keeps
// the factory from being wired at all.
#pragma once

#include <memory>

#include "graph/plan.h"
#include "nn/module.h"
#include "opt/trainer.h"

namespace rptcn::graph {

/// Compile `forward` — an eval-mode network forward (the caller switched
/// the net to evaluation; dropout never draws) — for input [n, f, t] into a
/// forward-only planned program; see the header comment for the rules.
/// Returns nullptr when the compiler declines, bumping
/// graph/forward_compile_declined; the caller then runs the tape forward.
/// Baked parameters are read through their nodes and folded/prepacked
/// weights are copies taken now, so the program is valid for as long as the
/// parameters it read stay unchanged.
std::shared_ptr<const Executable> compile_forward(const opt::ForwardFn& forward,
                                                  std::size_t n, std::size_t f,
                                                  std::size_t t,
                                                  std::size_t dispatch_n);

/// Build the planned training step for one fit() call, or nullptr to train
/// eagerly. Requirements: `optimizer` is an opt::Adam whose parameter list
/// matches model.parameters() element-for-element (the slab layout and the
/// clip reduction order both follow it), and planning is enabled. Wired into
/// opt::TrainOptions::planned_step_factory by models::fit_net.
std::shared_ptr<opt::PlannedStep> make_planned_step(
    nn::Module& model, const opt::ForwardFn& forward, opt::Optimizer& optimizer,
    const opt::TrainOptions& options);

}  // namespace rptcn::graph
