#include "tune/sweep.hpp"

#include <algorithm>
#include <thread>

#include "util/check.hpp"

namespace critter::tune {

namespace {

/// OS threads backing `logical` sweep workers.  Results never depend on the
/// pool size (isolated sweeps are bit-identical by construction,
/// batch-shared sweeps are a pure function of the batch size), so
/// oversubscribing the machine buys nothing but scheduler churn.
int pool_threads(int logical) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, hw > 0 ? std::min(logical, hw) : logical);
}

}  // namespace

const char* sweep_mode_name(SweepMode m) {
  switch (m) {
    case SweepMode::Serial: return "serial";
    case SweepMode::ParallelIsolated: return "parallel-isolated";
    case SweepMode::BatchShared: return "parallel-batch-shared";
  }
  return "?";
}

SweepDriver::SweepDriver(const Study& study, const TuneOptions& opt)
    : study_(study), opt_(opt), evaluator_(study, opt) {
  const int nconf = static_cast<int>(study.configs.size());
  begin_ = std::clamp(opt.config_begin, 0, nconf);
  end_ = opt.config_end < 0 ? nconf : std::clamp(opt.config_end, begin_, nconf);
  // Statistics reset between configurations (the paper's SLATE/CANDMC
  // protocol); never honored for eager propagation, which lives off
  // cross-configuration statistics.
  reset_ = opt.reset_per_config && opt.policy != Policy::EagerPropagation;
  ref_cache_.resize(nconf);
  plan_ = plan();
  if (plan_.mode == SweepMode::Serial) {
    store_.emplace(study_.nranks, profiler_config());
  } else {
    pool_ = std::make_unique<util::ThreadPool>(
        pool_threads(plan_.effective_workers));
    if (plan_.mode == SweepMode::BatchShared)
      base_ = Store(study_.nranks, profiler_config()).snapshot();
  }
}

Config SweepDriver::profiler_config() const {
  Config pc;
  pc.mode = ExecMode::Model;
  pc.policy = opt_.policy;
  pc.tolerance = opt_.tolerance;
  pc.tilde_capacity = opt_.tilde_capacity;
  pc.extrapolate = opt_.extrapolate;
  return pc;
}

SweepDriver::Plan SweepDriver::plan() const {
  // Statistical isolation holds when statistics reset between
  // configurations and no policy state survives the reset: eager
  // propagation is never reset, and the extrapolation size model outlives
  // reset_statistics() by design.
  const bool isolated_ok = opt_.reset_per_config &&
                           opt_.policy != Policy::EagerPropagation &&
                           !opt_.extrapolate;
  const int range_n = end_ - begin_;
  const int requested = std::max(1, opt_.workers);

  Plan p;
  if (range_n <= 1) {
    p.mode = SweepMode::Serial;
    if (requested > 1) p.fallback_reason = "single configuration in sweep range";
    return p;
  }
  if (isolated_ok) {
    if (requested == 1) return p;  // serial
    p.mode = SweepMode::ParallelIsolated;
    p.effective_workers = std::min(requested, range_n);
    p.batch = opt_.batch > 0 ? opt_.batch : range_n;
    return p;
  }
  // Shared statistics: batch-synchronous when parallelism (or an explicit
  // batch size, for worker-count-independence tests) was requested.
  if (requested == 1 && opt_.batch <= 0) return p;  // serial
  p.mode = SweepMode::BatchShared;
  p.batch = opt_.batch > 0 ? opt_.batch : requested;
  p.effective_workers = std::min({requested, p.batch, range_n});
  if (requested > 1 && p.effective_workers == 1)
    p.fallback_reason = "batch size 1 serializes the shared-statistics sweep";
  return p;
}

core::StatSnapshot SweepDriver::stats() const {
  if (plan_.mode == SweepMode::Serial) return store_->snapshot();
  if (plan_.mode == SweepMode::BatchShared) return base_;
  return {};  // isolated: statistics die with each configuration
}

std::string SweepDriver::stats_bytes() const {
  if (plan_.mode == SweepMode::Serial) return store_->snapshot_bytes();
  if (plan_.mode == SweepMode::BatchShared) return base_.to_string();
  return {};
}

core::StatSnapshot SweepDriver::diff_stats(
    const core::StatSnapshot& base) const {
  if (plan_.mode == SweepMode::Serial) return store_->diff(base);
  if (plan_.mode == SweepMode::BatchShared) return base_.diff(base);
  return {};
}

void SweepDriver::import_stats(const core::StatSnapshot& snap) {
  if (snap.empty()) return;
  // Isolated sweeps reset statistics per configuration, so there is no
  // shared state to seed; a warm start is ignored (the documented
  // TuneOptions::warm_start contract), not an error — the same options
  // must behave the same at any worker count.
  if (plan_.mode == SweepMode::ParallelIsolated) return;
  CRITTER_CHECK(snap.nranks() == study_.nranks,
                "imported snapshot rank count does not match study");
  if (plan_.mode == SweepMode::Serial) {
    store_->restore(snap);
    return;
  }
  base_ = snap;
  // In reset mode per-configuration statistics never cross the barrier,
  // so the shared snapshot must carry only the reset-surviving state
  // (channels, size model).  A snapshot captured from a non-reset sweep
  // may hold kernel statistics; keeping them would also break the
  // workers' diff-after-reset (the delta is computed against `base_`,
  // whose K the worker no longer contains).
  if (reset_)
    for (core::KernelTable& t : base_.ranks) t.clear_statistics();
}

void SweepDriver::merge_stats(const core::StatSnapshot& delta) {
  if (delta.empty()) return;
  if (plan_.mode == SweepMode::ParallelIsolated) return;
  CRITTER_CHECK(delta.nranks() == study_.nranks,
                "merged delta rank count does not match study");
  const core::StatSnapshot* d = &delta;
  core::StatSnapshot reduced;
  if (reset_) {
    // Per-configuration statistics never cross configurations in reset
    // mode; only the reset-surviving state (channels, size model) may
    // enter the shared base — the same rule import_stats applies.
    reduced = delta;
    for (core::KernelTable& t : reduced.ranks) t.clear_statistics();
    d = &reduced;
  }
  if (plan_.mode == SweepMode::Serial) {
    store_->merge(*d);
  } else {  // BatchShared
    base_.merge(*d);
  }
}

void SweepDriver::run_batch(const std::vector<int>& batch,
                            const EvalControl& ctl,
                            std::vector<ConfigOutcome>& out,
                            std::vector<ConfigTotals>& tot) {
  if (batch.empty()) return;
  if (plan_.mode == SweepMode::Serial) {
    for (int idx : batch) {
      if (reset_) store_->reset_statistics();
      out[idx] =
          evaluator_.evaluate(*store_, idx, &tot[idx], ctl, &ref_cache_[idx]);
    }
  } else if (plan_.mode == SweepMode::ParallelIsolated) {
    // Each task owns an independent store (identical to a freshly reset
    // one: reset_statistics clears exactly the state a new store lacks),
    // so configurations evaluate concurrently yet bit-identically to the
    // serial sweep.
    const Config pc = profiler_config();
    pool_->parallel_for(static_cast<int>(batch.size()), [&](int k) {
      Store store(study_.nranks, pc);
      const int idx = batch[k];
      out[idx] =
          evaluator_.evaluate(store, idx, &tot[idx], ctl, &ref_cache_[idx]);
    });
  } else {  // BatchShared
    const Config pc = profiler_config();
    std::vector<core::StatSnapshot> deltas(batch.size());
    // Every worker evaluates against a private store restored from the
    // shared snapshot; its result and statistics delta are pure
    // functions of (base, index, salts, ctl), so scheduling cannot leak
    // into the outcome.
    pool_->parallel_for(static_cast<int>(batch.size()), [&](int k) {
      Store store(study_.nranks, pc);
      store.restore(base_);
      if (reset_) store.reset_statistics();
      const int idx = batch[k];
      out[idx] =
          evaluator_.evaluate(store, idx, &tot[idx], ctl, &ref_cache_[idx]);
      deltas[k] = store.diff(base_);
      if (reset_) {
        // Per-configuration statistics die with the configuration; only
        // the state that outlives reset_statistics() — channels and the
        // extrapolation size model — crosses the barrier.
        for (core::KernelTable& t : deltas[k].ranks) t.clear_statistics();
      }
    });
    // The barrier: merge deltas in configuration order (batches arrive
    // ascending).
    for (std::size_t k = 0; k < batch.size(); ++k) base_.merge(deltas[k]);
  }
}

}  // namespace critter::tune
