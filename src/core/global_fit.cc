#include "core/global_fit.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>

#include "core/cost.h"
#include "core/simulate.h"
#include "guard/fault_injector.h"
#include "kernels/siv_kernel.h"
#include "obs/metrics.h"
#include "optimize/levenberg_marquardt.h"
#include "optimize/line_search.h"
#include "parallel/parallel_for.h"
#include "timeseries/metrics.h"

namespace dspot {

namespace {

/// Bundles the state GLOBALFIT iterates on for one keyword.
struct FitState {
  Series data;
  size_t keyword = 0;
  size_t num_keywords = 1;
  size_t n = 0;
  double peak = 1.0;
  KeywordGlobalParams params;
  std::vector<Shock> shocks;
  CodingModel coding = CodingModel::kGaussian;
  /// Mirrors GlobalFitOptions::use_numeric_jacobian into every
  /// FitBaseParams solve (probe copies inherit it).
  bool use_numeric_jacobian = false;
  /// Guard threaded into every LM solve below; inactive by default.
  GuardContext guard;
  /// Aggregated health for the whole alternation. Probe copies share the
  /// pointer on purpose: restarts spent on rejected candidates are still
  /// work the fit performed. Shock candidates, which run concurrently, each
  /// point at their own FitHealth and are folded in by TryAddShock.
  FitHealth* health = nullptr;
};

/// Scratch threaded through every helper below: the schedule cache, the LM
/// workspace, and the simulation / residual-index buffers. One instance per
/// FitGlobalSequence call (and hence per keyword task in GlobalFit), plus
/// one per block of shock candidates in TryAddShock, so the alternation
/// loop stays allocation-free once warm without sharing mutable state
/// across threads. Nothing in it changes values: the cache is keyed
/// exactly and the buffers are resized per use.
struct FitScratch {
  ScheduleCache schedules;
  LmWorkspace lm;
  std::vector<double> estimate;
  std::vector<size_t> observed;
};

/// Simulates the state into scratch->estimate and returns a view of it.
/// The view is valid until the next simulation through the same scratch.
std::span<const double> SimulateStateInto(const FitState& state,
                                          FitScratch* scratch) {
  scratch->estimate.resize(state.n);
  const std::span<const double> epsilon =
      scratch->schedules.GlobalEpsilon(state.shocks, state.keyword, state.n);
  const std::span<const double> eta =
      state.params.has_growth()
          ? scratch->schedules.Eta(state.params.growth_rate,
                                   state.params.growth_start, state.n)
          : std::span<const double>();
  const SivDynamics dynamics{state.params.population, state.params.beta,
                             state.params.delta, state.params.gamma,
                             state.params.i0};
  SimulateSivInto(dynamics, epsilon, eta, scratch->estimate);
  return scratch->estimate;
}

/// Owning-Series variant for results that outlive the scratch.
Series SimulateStateSeries(const FitState& state, FitScratch* scratch) {
  const std::span<const double> estimate = SimulateStateInto(state, scratch);
  Series out(state.n);
  std::copy(estimate.begin(), estimate.end(), out.mutable_values().begin());
  return out;
}

double StateCostBits(const FitState& state, FitScratch* scratch) {
  return GlobalKeywordCostBits(std::span<const double>(state.data.values()),
                               SimulateStateInto(state, scratch), state.params,
                               state.shocks, state.keyword,
                               state.num_keywords, state.n, state.coding);
}

double StateRmse(const FitState& state, FitScratch* scratch) {
  return Rmse(std::span<const double>(state.data.values()),
              SimulateStateInto(state, scratch));
}

/// LM fit of the continuous base parameters {N, beta, delta, gamma, i0}
/// with shocks and growth held fixed. Multi-start on the first round.
/// Numerical failures of individual starts are recoverable (the next
/// start may succeed) and are skipped; anything else — cancellation,
/// injected internal faults — aborts the fit and propagates.
Status FitBaseParams(FitState* state, bool multi_start, FitScratch* scratch) {
  DSPOT_SPAN("global_fit.base_lm");
  const double peak = state->peak;
  // Shocks and growth are held fixed here, so both schedules can be
  // materialized once for the whole solve instead of per residual call;
  // nothing below touches the cache, so the views stay valid. Only the
  // five scalar dynamics vary between evaluations.
  const std::span<const double> epsilon =
      scratch->schedules.GlobalEpsilon(state->shocks, state->keyword,
                                       state->n);
  const std::span<const double> eta =
      state->params.has_growth()
          ? scratch->schedules.Eta(state->params.growth_rate,
                                   state->params.growth_start, state->n)
          : std::span<const double>();
  std::vector<size_t>& observed = scratch->observed;
  observed.clear();
  for (size_t t = 0; t < state->n; ++t) {
    if (state->data.IsObserved(t)) observed.push_back(t);
  }
  std::vector<double>& estimate = scratch->estimate;
  estimate.resize(state->n);
  const Series& data = state->data;
  auto residual_fn = [&](std::span<const double> p,
                         std::span<double> r) -> Status {
    const SivDynamics dynamics{p[0], p[1], p[2], p[3], p[4]};
    SimulateSivInto(dynamics, epsilon, eta, estimate);
    for (size_t k = 0; k < observed.size(); ++k) {
      const size_t t = observed[k];
      r[k] = estimate[t] - data[t];
    }
    return Status::Ok();
  };
  // N must exceed the observed peak: I(t) <= N always, so a smaller N
  // would make the spikes unreachable for any shock strength.
  Bounds bounds;
  bounds.lower = {peak * 1.05, 1e-4, 1e-4, 1e-4, 1e-6};
  bounds.upper = {peak * 300.0, 5.0, 1.0, 1.0, peak};

  // Analytic Jacobian: dr_k/dp = dI(observed[k])/d{N,beta,delta,gamma,i0},
  // from one forward-mode dual pass over the recurrence — replacing the
  // five re-simulations per LM iteration of the numeric path (kept above
  // as a cross-check behind use_numeric_jacobian).
  JacobianIntoFn analytic_jacobian;
  if (!state->use_numeric_jacobian) {
    analytic_jacobian = [&, n = state->n](std::span<const double> p,
                                          Matrix* jac) -> Status {
      const kernels::SivParams sp{p[0], p[1], p[2], p[3], p[4]};
      kernels::SivJacobianInto(sp, epsilon, eta, observed, n,
                               jac->MutableData(), jac->cols());
      return Status::Ok();
    };
  }

  std::vector<std::vector<double>> starts;
  if (multi_start) {
    starts = {
        {peak * 2.0, 0.3, 0.1, 0.05, 1.0},
        {peak * 2.0, 0.6, 0.4, 0.2, 1.0},
        {peak * 5.0, 0.9, 0.7, 0.5, peak * 0.01},
        {peak * 1.5, 0.2, 0.5, 0.1, peak * 0.05},
    };
  } else {
    starts = {{state->params.population, state->params.beta,
               state->params.delta, state->params.gamma, state->params.i0}};
  }
  LmOptions lm_options;
  lm_options.guard = state->guard;
  lm_options.analytic_jacobian = analytic_jacobian;
  double best_cost = std::numeric_limits<double>::infinity();
  KeywordGlobalParams best = state->params;
  for (const auto& init : starts) {
    auto fit_or = LevenbergMarquardt(residual_fn, observed.size(), init,
                                     bounds, lm_options, &scratch->lm);
    if (!fit_or.ok()) {
      const StatusCode code = fit_or.status().code();
      if (code == StatusCode::kNumericalError ||
          code == StatusCode::kInvalidArgument) {
        continue;  // recoverable per-start failure; try the next start
      }
      return fit_or.status();
    }
    if (state->health) {
      state->health->restarts += fit_or->health.restarts;
    }
    if (fit_or->final_cost < best_cost) {
      best_cost = fit_or->final_cost;
      best.population = fit_or->params[0];
      best.beta = fit_or->params[1];
      best.delta = fit_or->params[2];
      best.gamma = fit_or->params[3];
      best.i0 = fit_or->params[4];
      best.growth_rate = state->params.growth_rate;
      best.growth_start = state->params.growth_start;
    }
  }
  if (std::isfinite(best_cost)) {
    state->params = best;
  }
  return Status::Ok();
}

/// Growth-effect search: grid over the onset t_eta, 1-d search over eta_0.
/// A growth term is adopted when it lowers the MDL cost or buys a
/// meaningful RMSE improvement (same optimistic-forward rationale as shock
/// addition; the term only costs ~40 bits, so any real improvement also
/// wins on cost at the next evaluation). An existing term is dropped when
/// the model without it codes cheaper.
void FitGrowth(FitState* state, const GlobalFitOptions& options,
               FitScratch* scratch) {
  DSPOT_SPAN("global_fit.growth_search");
  const double base_cost = StateCostBits(*state, scratch);

  FitState probe = *state;
  // Consider removing an existing growth term (strict MDL).
  if (state->params.has_growth()) {
    probe.params.growth_start = kNpos;
    probe.params.growth_rate = 0.0;
    if (StateCostBits(probe, scratch) < base_cost) {
      state->params = probe.params;
      return;
    }
    probe.params = state->params;
  }
  double best_rmse = std::numeric_limits<double>::infinity();
  double best_cost = base_cost;
  KeywordGlobalParams best = state->params;
  const size_t grid = std::max<size_t>(options.growth_grid, 2);
  for (size_t g = 1; g < grid; ++g) {
    const size_t t_eta = state->n * g / grid;
    if (t_eta < 2 || t_eta + 4 >= state->n) continue;
    probe.params.growth_start = t_eta;
    const double rate = GridThenGoldenMinimize(
        [&](double eta0) {
          probe.params.growth_rate = eta0;
          return StateRmse(probe, scratch);
        },
        0.0, options.max_growth_rate, 20, 1e-4);
    probe.params.growth_rate = rate;
    const double rmse = StateRmse(probe, scratch);
    if (rmse < best_rmse) {
      best_rmse = rmse;
      best_cost = StateCostBits(probe, scratch);
      best = probe.params;
    }
  }
  const bool mdl_better = best_cost < base_cost * (1.0 - options.min_cost_decrease) ||
                          best_cost < base_cost - 1.0;
  if (mdl_better) {
    state->params = best;
  }
}

/// Hierarchical fit of one shock's strengths. Stage 1 fits the shared
/// eps_0 (one float under MDL). Stage 2 lets individual occurrences
/// deviate where that helps the fit, then reverts deviations that do not
/// pay their own description cost — keeping most occurrences at the
/// default and the model parsimonious.
void FitShockStrengths(FitState* state, size_t shock_index,
                       double max_strength, FitScratch* scratch) {
  Shock& shock = state->shocks[shock_index];
  // Stage 1: shared strength.
  const double shared = GuardedMinimize(
      [&](double strength) {
        shock.base_strength = strength;
        std::fill(shock.global_strengths.begin(),
                  shock.global_strengths.end(), strength);
        return StateRmse(*state, scratch);
      },
      0.0, max_strength, shock.base_strength);
  shock.base_strength = shared;
  std::fill(shock.global_strengths.begin(), shock.global_strengths.end(),
            shared);
  // Stage 2: per-occurrence deviations (pointless for one occurrence).
  if (shock.global_strengths.size() < 2) {
    return;
  }
  for (size_t m = 0; m < shock.global_strengths.size(); ++m) {
    shock.global_strengths[m] = GuardedMinimize(
        [&](double strength) {
          shock.global_strengths[m] = strength;
          return StateRmse(*state, scratch);
        },
        0.0, max_strength, shock.global_strengths[m]);
  }
  // MDL sweep: a deviation stays only if it codes cheaper than the
  // default.
  double cost = StateCostBits(*state, scratch);
  for (size_t m = 0; m < shock.global_strengths.size(); ++m) {
    if (shock.global_strengths[m] == shock.base_strength) continue;
    const double saved = shock.global_strengths[m];
    shock.global_strengths[m] = shock.base_strength;
    const double cost_reverted = StateCostBits(*state, scratch);
    if (cost_reverted <= cost) {
      cost = cost_reverted;
    } else {
      shock.global_strengths[m] = saved;
    }
  }
}

/// Refines a candidate's (t_s, t_w) against the data. Detected bursts lag
/// the causal shock window — I(t) responds to eps(t) one or two ticks
/// later — so the burst-anchored proposal is scanned over small backward
/// start offsets and narrower widths. Each variant is scored cheaply with
/// a single shared strength; the winner is returned with its occurrence
/// vector resized.
Shock RefineShockPlacement(const FitState& state, const Shock& candidate,
                           double max_strength, FitScratch* scratch) {
  Shock best = candidate;
  double best_rmse = std::numeric_limits<double>::infinity();
  FitState probe = state;
  probe.shocks.push_back(candidate);
  Shock& trial = probe.shocks.back();
  for (size_t offset = 0; offset <= 3; ++offset) {
    if (candidate.start < offset) break;
    for (size_t narrow = 0; narrow < 3 && candidate.width > narrow; ++narrow) {
      trial = candidate;
      trial.start = candidate.start - offset;
      trial.width = candidate.width - narrow;
      trial.global_strengths.assign(trial.NumOccurrences(state.n), 0.0);
      // Shared-strength 1-d fit (cheap placement score).
      const double strength = GridThenGoldenMinimize(
          [&](double v) {
            std::fill(trial.global_strengths.begin(),
                      trial.global_strengths.end(), v);
            return StateRmse(probe, scratch);
          },
          0.0, max_strength, 20, 1e-2);
      trial.base_strength = strength;
      std::fill(trial.global_strengths.begin(), trial.global_strengths.end(),
                strength);
      const double rmse = StateRmse(probe, scratch);
      if (rmse < best_rmse) {
        best_rmse = rmse;
        best = trial;
      }
    }
  }
  return best;
}

/// One shock candidate judged from the incumbent state: the placed and
/// jointly refit probe, its MDL cost and RMSE, and the health of its own LM
/// solves. Candidates are evaluated concurrently, so each keeps its own
/// FitHealth rather than writing through the incumbent's pointer.
struct CandidateFit {
  FitState probe;
  double cost = 0.0;
  double rmse = 0.0;
  FitHealth health;
};

/// Places `candidate` against the incumbent, fits its strengths, and runs
/// the joint refit that precedes the MDL verdict. Reads `state` only, so
/// candidates of one pass are independent of each other.
StatusOr<CandidateFit> FitShockCandidate(const FitState& state,
                                         const Shock& candidate,
                                         const GlobalFitOptions& options,
                                         FitScratch* scratch) {
  FitHealth health;
  FitState probe = state;
  probe.health = &health;
  probe.shocks.push_back(RefineShockPlacement(
      state, candidate, options.max_shock_strength, scratch));
  FitShockStrengths(&probe, probe.shocks.size() - 1,
                    options.max_shock_strength, scratch);
  // Joint refinement before the MDL verdict: the incumbent base was fit
  // with this spike mass unexplained, so judge the candidate only after
  // base and strengths are refit *together*. Shock-free optima often sit
  // in degenerate basins (e.g. a slow-ramp fit with tiny beta/delta where
  // no eps(t) can produce a spike), and neither a warm base refit (stays
  // in the basin) nor a plain multi-start (the basin wins as long as the
  // strengths are zero) escapes — so each start gets a mini-EM: base LM,
  // strength fit, base LM again.
  const double peak = probe.peak;
  const std::vector<KeywordGlobalParams> seeds = [&] {
    std::vector<KeywordGlobalParams> out = {probe.params};
    KeywordGlobalParams seed = probe.params;
    seed.population = peak * 2.0;
    seed.beta = 0.5;
    seed.delta = 0.45;
    seed.gamma = 0.5;
    seed.i0 = 1.0;
    out.push_back(seed);
    seed.beta = 0.9;
    seed.delta = 0.7;
    seed.gamma = 0.2;
    out.push_back(seed);
    return out;
  }();
  FitState best_joint = probe;
  double best_joint_rmse = std::numeric_limits<double>::infinity();
  for (const KeywordGlobalParams& seed : seeds) {
    FitState trial = probe;
    trial.params = seed;
    DSPOT_RETURN_IF_ERROR(
        FitBaseParams(&trial, /*multi_start=*/false, scratch));
    FitShockStrengths(&trial, trial.shocks.size() - 1,
                      options.max_shock_strength, scratch);
    DSPOT_RETURN_IF_ERROR(
        FitBaseParams(&trial, /*multi_start=*/false, scratch));
    const double trial_rmse = StateRmse(trial, scratch);
    if (trial_rmse < best_joint_rmse) {
      best_joint_rmse = trial_rmse;
      best_joint = std::move(trial);
    }
  }
  CandidateFit fit;
  fit.cost = StateCostBits(best_joint, scratch);
  fit.rmse = StateRmse(best_joint, scratch);
  fit.health = health;
  best_joint.health = nullptr;
  fit.probe = std::move(best_joint);
  return fit;
}

/// One pass of greedy shock detection: propose candidates from the current
/// residual, refine their placement, fit their strengths, and keep the
/// best candidate. Acceptance is *optimistic*: a candidate is kept if it
/// lowers the MDL cost OR improves the RMSE by a meaningful margin. With
/// several overlapping spike trains, no single train lowers the Gaussian
/// coding cost on its own (the residual variance stays dominated by the
/// remaining trains), so a strict per-addition MDL gate deadlocks; the
/// strict gate is instead applied by the backward pruning pass after the
/// joint refit. Returns true if a shock was added.
///
/// Every candidate is judged from the same incumbent, so they are fit
/// concurrently (options.num_threads; one FitScratch per block of
/// candidates) and folded afterwards in candidate order, exactly as a
/// serial loop would: the first failing candidate's error, the restarts,
/// the verbose lines and the acceptance scan, where the first of equally
/// cheap candidates wins. The result is bit-identical at any thread count.
StatusOr<bool> TryAddShock(FitState* state, const GlobalFitOptions& options,
                           double* current_cost, FitScratch* scratch) {
  const std::span<const double> estimate = SimulateStateInto(*state, scratch);
  Series residual(state->n);
  for (size_t t = 0; t < state->n; ++t) {
    residual[t] = state->data.IsObserved(t) ? state->data[t] - estimate[t]
                                            : kMissingValue;
  }
  const std::vector<Shock> candidates =
      ProposeShockCandidates(residual, state->keyword, options.detection);
  DSPOT_COUNT("global_fit.shock_candidates", candidates.size());
  if (candidates.empty()) {
    return false;
  }
  const double base_cost = *current_cost;
  const double base_rmse = StateRmse(*state, scratch);
  ParallelOptions popts;
  popts.num_threads = options.num_threads;
  popts.cancel = options.guard.cancel;
  std::vector<StatusOr<CandidateFit>> fits =
      ParallelTryMapWithScratch<CandidateFit, FitScratch>(
          candidates.size(), popts,
          [&](size_t i, FitScratch* block_scratch) {
            return FitShockCandidate(*state, candidates[i], options,
                                     block_scratch);
          });
  // The forward pass optimizes explanatory power optimistically; the
  // backward pass restores parsimony.
  double best_cost = std::numeric_limits<double>::infinity();
  CandidateFit* best = nullptr;
  for (StatusOr<CandidateFit>& fit_or : fits) {
    DSPOT_RETURN_IF_ERROR(fit_or.status());
    CandidateFit& fit = *fit_or;
    if (state->health) {
      state->health->restarts += fit.health.restarts;
    }
    if (options.verbose) {
      std::fprintf(stderr, "[dspot]   cand %s -> rmse=%.3f cost=%.1f (vs %.1f)\n",
                   fit.probe.shocks.back().ToString().c_str(), fit.rmse,
                   fit.cost, base_cost);
    }
    const bool mdl_better =
        fit.cost < base_cost * (1.0 - options.min_cost_decrease) ||
        fit.cost < base_cost - 1.0;
    const bool rmse_better =
        fit.rmse < base_rmse * (1.0 - options.min_rmse_decrease);
    // Among acceptable candidates, prefer the cheaper description: cost
    // comparisons between candidates are meaningful even when the shared
    // residual tail keeps all of them above the incumbent.
    if ((mdl_better || rmse_better) && fit.cost < best_cost) {
      best_cost = fit.cost;
      best = &fit;
    }
  }
  if (best == nullptr) {
    return false;
  }
  DSPOT_COUNT("global_fit.shocks_added", 1);
  // A probe differs from the incumbent only in its parameters and shocks.
  state->params = best->probe.params;
  state->shocks = std::move(best->probe.shocks);
  *current_cost = best_cost;
  return true;
}

/// The alternation loop shared by FitGlobalSequence (cold start) and
/// RefitGlobalSequence (warm start from a previous fit). On deadline
/// expiry the strict-MDL best-so-far snapshot is returned with
/// health.termination == kDeadlineExceeded; cancellation propagates as
/// Status::Cancelled.
StatusOr<GlobalSequenceFit> RunAlternation(FitState state,
                                           const GlobalFitOptions& options,
                                           FitScratch* scratch) {
  DSPOT_SPAN("global_fit.sequence");
  const auto start_time = std::chrono::steady_clock::now();
  FitHealth health;
  state.health = &health;
  state.guard = options.guard;

  // Guard checkpoint shared by the loops below: records the first non-OK
  // status and reports interruption, so nested loops can unwind through
  // plain breaks. Disarmed guards cost one relaxed atomic load.
  Status guard_status = Status::Ok();
  auto interrupted = [&]() -> bool {
    if (!guard_status.ok()) return true;
    if (!(options.guard.active() || FaultInjector::Instance().armed())) {
      return false;
    }
    Status check = options.guard.Check("GlobalFit alternation");
    if (check.ok()) return false;
    guard_status = std::move(check);
    return true;
  };

  double cost = StateCostBits(state, scratch);

  // `best_state` tracks the strict-MDL optimum (what we return); the round
  // loop keeps exploring while either the cost or the RMSE is still
  // descending, so optimistic shock additions get the extra joint-refit
  // rounds they need to pay for themselves.
  FitState best_state = state;
  double best_cost = cost;
  double prev_rmse = StateRmse(state, scratch);
  bool converged = false;

  for (int round = 0; round < options.max_outer_rounds; ++round) {
    if (interrupted()) break;
    DSPOT_SPAN("global_fit.round");
    DSPOT_COUNT("global_fit.rounds", 1);
    const double round_start_cost = cost;
    // Base refit against the current shock set. Multi-start once shocks
    // exist: the no-shock optimum (which absorbs spikes into the base
    // dynamics) is a poor basin for the shocked model.
    DSPOT_RETURN_IF_ERROR(
        FitBaseParams(&state, /*multi_start=*/!state.shocks.empty(), scratch));
    if (options.verbose) {
      std::fprintf(stderr, "[dspot] round %d after base: cost=%.1f rmse=%.3f\n",
                   round, StateCostBits(state, scratch),
                   StateRmse(state, scratch));
    }
    if (options.allow_shocks) {
      // Refit the strengths of already-accepted shocks against the
      // refreshed base, then greedily extend the shock set.
      for (size_t k = 0; k < state.shocks.size(); ++k) {
        FitShockStrengths(&state, k, options.max_shock_strength, scratch);
      }
      cost = StateCostBits(state, scratch);
      while (state.shocks.size() < options.max_shocks_per_keyword &&
             !interrupted()) {
        DSPOT_ASSIGN_OR_RETURN(
            bool added, TryAddShock(&state, options, &cost, scratch));
        if (!added) break;
      }
    }
    if (interrupted()) break;
    if (options.allow_shocks) {
      // Backward pass: drop shocks whose description cost is no longer
      // justified (mirrors the paper's re-initialization of s_i without
      // discarding still-useful events).
      cost = StateCostBits(state, scratch);
      for (size_t k = 0; k < state.shocks.size();) {
        FitState without = state;
        without.shocks.erase(without.shocks.begin() + k);
        const double cost_without = StateCostBits(without, scratch);
        if (cost_without <= cost + options.prune_slack_bits) {
          DSPOT_COUNT("global_fit.shocks_pruned", 1);
          state = std::move(without);
          cost = cost_without;
        } else {
          ++k;
        }
      }
      // Simplification pass: a cyclic shock whose energy sits in a single
      // occurrence is really a one-shot — re-encode it as such when the
      // code length does not object (prevents "period 9, one strong
      // occurrence" artifacts in the event inventory).
      for (size_t k = 0; k < state.shocks.size(); ++k) {
        const Shock& shock = state.shocks[k];
        if (!shock.IsCyclic() || shock.global_strengths.empty()) continue;
        const size_t m_best = ArgMax(shock.global_strengths);
        if (m_best == kNpos) continue;
        FitState probe = state;
        Shock& alt = probe.shocks[k];
        alt.period = Shock::kNonCyclic;
        alt.start = shock.start + m_best * shock.period;
        alt.base_strength = shock.global_strengths[m_best];
        alt.global_strengths = {alt.base_strength};
        FitShockStrengths(&probe, k, options.max_shock_strength, scratch);
        const double cost_alt = StateCostBits(probe, scratch);
        if (cost_alt <= cost + options.prune_slack_bits) {
          state = std::move(probe);
          cost = cost_alt;
        }
      }
    }
    // Growth is searched after the shock set has stabilized: evaluated
    // earlier, optimistically added shocks absorb the level-shift mass and
    // the strict MDL gate rejects the (real) growth term; evaluated here,
    // the spikes are explained, the junk is pruned, and a level shift
    // shows up cleanly in the coding-cost balance.
    if (options.allow_growth && !interrupted()) {
      FitGrowth(&state, options, scratch);
      if (options.verbose) {
        std::fprintf(stderr,
                     "[dspot] round %d after growth: cost=%.1f rmse=%.3f\n",
                     round, StateCostBits(state, scratch),
                     StateRmse(state, scratch));
      }
    }
    cost = StateCostBits(state, scratch);
    const double rmse = StateRmse(state, scratch);
    if (options.verbose) {
      std::fprintf(stderr,
                   "[dspot] round %d end: cost=%.1f best=%.1f rmse=%.3f "
                   "shocks=%zu\n",
                   round, cost, best_cost, rmse, state.shocks.size());
    }
    ++health.iterations;
    DSPOT_OBSERVE("global_fit.round.cost_bits_delta", cost - round_start_cost);
    bool progressed = false;
    if (cost < best_cost * (1.0 - options.min_cost_decrease) ||
        cost < best_cost - 1.0) {
      best_cost = cost;
      best_state = state;
      progressed = true;
    }
    if (rmse < prev_rmse * (1.0 - options.min_rmse_decrease)) {
      progressed = true;
    }
    prev_rmse = rmse;
    if (!progressed) {
      converged = true;
      break;
    }
  }

  if (!guard_status.ok() &&
      guard_status.code() == StatusCode::kCancelled) {
    return guard_status;
  }

  if (options.return_final_state) {
    best_state = state;
    best_cost = StateCostBits(state, scratch);
  }
  GlobalSequenceFit fit;
  fit.params = best_state.params;
  fit.shocks = best_state.shocks;
  fit.estimate = SimulateStateSeries(best_state, scratch);
  fit.cost_bits = best_cost;
  fit.rmse = Rmse(best_state.data, fit.estimate);
  health.wall_time_ms = ElapsedMs(start_time);
  health.termination = !guard_status.ok()
                           ? FitTermination::kDeadlineExceeded
                           : (converged ? FitTermination::kConverged
                                        : FitTermination::kMaxIterations);
  fit.health = health;
  return fit;
}

}  // namespace

StatusOr<GlobalSequenceFit> FitGlobalSequence(const Series& data,
                                              size_t keyword,
                                              size_t num_keywords,
                                              const GlobalFitOptions& options) {
  if (data.observed_count() < 16) {
    return Status::InvalidArgument(
        "FitGlobalSequence: need at least 16 observations");
  }
  FitState state;
  state.data = data;
  state.keyword = keyword;
  state.num_keywords = std::max<size_t>(num_keywords, 1);
  state.n = data.size();
  state.peak = std::max(data.MaxValue(), 1.0);
  state.coding = options.coding_model;
  state.params.population = state.peak * 2.0;
  state.params.i0 = 1.0;
  state.use_numeric_jacobian = options.use_numeric_jacobian;
  state.guard = options.guard;

  FitScratch scratch;
  DSPOT_RETURN_IF_ERROR(FitBaseParams(&state, /*multi_start=*/true, &scratch));
  return RunAlternation(std::move(state), options, &scratch);
}

StatusOr<GlobalSequenceFit> RefitGlobalSequence(
    const Series& data, size_t keyword, size_t num_keywords,
    const GlobalSequenceFit& previous, const GlobalFitOptions& options) {
  if (data.observed_count() < 16) {
    return Status::InvalidArgument(
        "RefitGlobalSequence: need at least 16 observations");
  }
  if (data.size() < previous.estimate.size()) {
    return Status::InvalidArgument(
        "RefitGlobalSequence: data shorter than the previous fit");
  }
  FitState state;
  state.data = data;
  state.keyword = keyword;
  state.num_keywords = std::max<size_t>(num_keywords, 1);
  state.n = data.size();
  state.peak = std::max(data.MaxValue(), 1.0);
  state.coding = options.coding_model;
  state.use_numeric_jacobian = options.use_numeric_jacobian;
  state.guard = options.guard;
  state.params = previous.params;
  state.shocks = previous.shocks;
  // Extend cyclic shocks over the newly observed range: fresh occurrences
  // start at the shared strength and keyword tags follow this refit.
  for (Shock& shock : state.shocks) {
    shock.keyword = keyword;
    const size_t occ = shock.NumOccurrences(state.n);
    shock.global_strengths.resize(occ, shock.base_strength);
  }
  GlobalFitOptions warm_options = options;
  warm_options.max_outer_rounds = std::min(options.max_outer_rounds, 2);
  FitScratch scratch;
  return RunAlternation(std::move(state), warm_options, &scratch);
}

StatusOr<ModelParamSet> GlobalFit(const ActivityTensor& tensor,
                                  const GlobalFitOptions& options,
                                  std::vector<Status>* keyword_status,
                                  FitHealth* health) {
  if (tensor.empty()) {
    return Status::InvalidArgument("GlobalFit: empty tensor");
  }
  ModelParamSet params;
  params.num_keywords = tensor.num_keywords();
  params.num_locations = tensor.num_locations();
  params.num_ticks = tensor.num_ticks();
  // Keywords are independent (Algorithm 2 runs per keyword), so fit them
  // concurrently. ParallelTryMap lands each fit in its keyword's slot —
  // result and error paths both match the serial loop bit for bit — and
  // keeps every per-keyword outcome, so kSkipAndReport can use the
  // successful fits while surfacing the failed keywords.
  if (options.warm_start != nullptr &&
      tensor.num_ticks() < options.warm_start->num_ticks) {
    return Status::InvalidArgument(
        "GlobalFit: tensor spans " + std::to_string(tensor.num_ticks()) +
        " ticks but the warm-start model was fit on " +
        std::to_string(options.warm_start->num_ticks) +
        " — warm starts only extend, never shrink");
  }
  ParallelOptions popts;
  popts.num_threads = options.num_threads;
  popts.cancel = options.guard.cancel;
  std::vector<StatusOr<GlobalSequenceFit>> fits =
      ParallelTryMap<GlobalSequenceFit>(
          params.num_keywords, popts, [&](size_t i) {
            // Keywords covered by the warm-start model skip the cold
            // multi-start search and refit from the previous parameters;
            // keywords beyond it (e.g. added since the snapshot) fall
            // back to a cold fit.
            const ModelParamSet* warm = options.warm_start;
            if (warm != nullptr && i < warm->global.size()) {
              DSPOT_COUNT("global_fit.warm_starts", 1);
              GlobalSequenceFit previous;
              previous.params = warm->global[i];
              for (const Shock& shock : warm->shocks) {
                if (shock.keyword == i) previous.shocks.push_back(shock);
              }
              previous.estimate = Series(warm->num_ticks);
              return RefitGlobalSequence(tensor.GlobalSequence(i), i,
                                         params.num_keywords, previous,
                                         options);
            }
            DSPOT_COUNT("global_fit.cold_starts", 1);
            return FitGlobalSequence(tensor.GlobalSequence(i), i,
                                     params.num_keywords, options);
          });
  if (keyword_status) {
    keyword_status->clear();
    keyword_status->reserve(params.num_keywords);
    for (const StatusOr<GlobalSequenceFit>& fit : fits) {
      keyword_status->push_back(fit.status());
    }
  }
  // Cancellation is caller-initiated and fails the whole fit regardless
  // of the keyword-error policy.
  if (options.guard.cancel.cancelled()) {
    return Status::Cancelled("GlobalFit: cancelled");
  }
  // Deterministic assembly: keyword order, exactly like the serial loop.
  // Under kFail the first (lowest-index) error propagates; under
  // kSkipAndReport failed keywords keep default parameters and no shocks.
  FitHealth merged;
  params.global.reserve(params.num_keywords);
  for (StatusOr<GlobalSequenceFit>& fit : fits) {
    if (!fit.ok()) {
      if (options.on_keyword_error == KeywordErrorPolicy::kFail) {
        return fit.status();
      }
      params.global.push_back(KeywordGlobalParams());
      continue;
    }
    merged.Merge(fit->health);
    params.global.push_back(fit->params);
    for (Shock& shock : fit->shocks) {
      params.shocks.push_back(std::move(shock));
    }
  }
  if (health) {
    *health = merged;
  }
  return params;
}

}  // namespace dspot
