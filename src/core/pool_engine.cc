#include "src/core/pool_engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/node_runtime.h"

namespace dfil::core {

int PoolEngine::CreatePool() {
  const int id = static_cast<int>(pools_.size());
  pools_.push_back(std::make_unique<Pool>(id));
  return id;
}

void PoolEngine::AddFilament(int pool, FilamentFn fn, int64_t a0, int64_t a1, int64_t a2) {
  DFIL_CHECK_GE(pool, 0);
  DFIL_CHECK_LT(static_cast<size_t>(pool), pools_.size());
  DFIL_CHECK(!sweep_active_) << "cannot create filaments during a sweep";
  Pool& p = *pools_[pool];
  p.filaments.push_back(Filament{fn, a0, a1, a2});
  p.patterns_valid = false;
  rt_->ledger_.BindPoolFn(pool, reinterpret_cast<const void*>(fn));
  rt_->Charge(TimeCategory::kFilamentExec, rt_->costs().filament_create);
  rt_->fil_stats().filaments_created++;
}

void PoolEngine::AddAutoFilament(FilamentFn fn, int64_t a0, int64_t a1, int64_t a2) {
  if (auto_pool_ < 0) {
    auto_pool_ = CreatePool();
    pools_[auto_pool_]->auto_profile = true;
  }
  AddFilament(auto_pool_, fn, a0, a1, a2);
}

void PoolEngine::BuildPatterns(Pool* pool) {
  // Greedy run detection: extend a strip while the code pointer matches and the three argument
  // words advance by the deltas observed between the first two descriptors.
  pool->strips.clear();
  const std::vector<Filament>& f = pool->filaments;
  size_t i = 0;
  while (i < f.size()) {
    Strip s{f[i].fn, f[i].a0, f[i].a1, f[i].a2, 0, 0, 0, 1};
    size_t j = i + 1;
    if (j < f.size() && f[j].fn == s.fn) {
      s.d0 = f[j].a0 - f[i].a0;
      s.d1 = f[j].a1 - f[i].a1;
      s.d2 = f[j].a2 - f[i].a2;
      while (j < f.size() && f[j].fn == s.fn &&
             f[j].a0 == s.a0 + static_cast<int64_t>(j - i) * s.d0 &&
             f[j].a1 == s.a1 + static_cast<int64_t>(j - i) * s.d1 &&
             f[j].a2 == s.a2 + static_cast<int64_t>(j - i) * s.d2) {
        ++j;
      }
      s.count = static_cast<int64_t>(j - i);
    }
    pool->strips.push_back(s);
    i = j > i + 1 ? j : i + 1;
  }
  pool->patterns_valid = true;
}

void PoolEngine::RunSweep() {
  DFIL_CHECK(!sweep_active_);
  threads::ServerThread* self = rt_->CurrentThread();
  DFIL_CHECK(self != nullptr) << "RunSweep must run on a server thread";
  WaitForMigrations();
  if (pools_.empty()) {
    return;
  }

  // Frontloading: if the previous sweep completed, run pools in reverse completion order — the
  // pools that faulted finished last, so their faults are issued first this time (paper §2.2).
  order_.clear();
  if (finish_stack_.size() == pools_.size()) {
    order_.assign(finish_stack_.rbegin(), finish_stack_.rend());
  } else {
    for (const auto& p : pools_) {
      order_.push_back(p.get());
    }
  }
  last_order_ids_.clear();
  for (Pool* p : order_) {
    last_order_ids_.push_back(p->id);
  }
  finish_stack_.clear();

  int total_filaments = 0;
  for (Pool* p : order_) {
    p->running = false;
    p->completed = false;
    p->faulted_this_sweep = false;
    total_filaments += static_cast<int>(p->filaments.size());
  }
  next_pool_ = 0;
  pools_remaining_ = static_cast<int>(order_.size());
  if (total_filaments == 0) {
    pools_remaining_ = 0;
    return;
  }
  sweep_active_ = true;
  spare_runners_ = 0;
  EnsureRunnerForRemainingPools();

  while (pools_remaining_ > 0) {
    DFIL_CHECK(sweep_waiter_ == nullptr);
    sweep_waiter_ = self;
    rt_->BlockCurrent(WaitKind::kSweep);
  }
  sweep_waiter_ = nullptr;
  sweep_active_ = false;
  RepartitionAutoPools();
}

void PoolEngine::RepartitionAutoPools() {
  // Adaptive pool assignment (paper §2.2 future work): cluster filaments by the page they fault
  // on. The profiling pool stays in profiling mode across sweeps and migrates newly-faulting
  // filaments into per-page pools incrementally — within one sweep only the FIRST filament to
  // touch a missing page faults (the fetch satisfies its neighbours), so convergence to the full
  // edge pools takes a few sweeps under implicit-invalidate's per-sweep re-faulting.
  if (auto_pool_ < 0) {
    return;
  }
  Pool& src = *pools_[auto_pool_];
  if (!src.auto_profile || src.fault_profile.empty()) {
    return;
  }
  // Widen each fault to the whole pattern-recognized strip containing it: filaments of one strip
  // walk adjacent addresses, so they overwhelmingly share pages — the same observation that
  // powers the inlined execution path. This moves a faulting edge ROW at once instead of one
  // filament per sweep.
  if (!src.patterns_valid) {
    BuildPatterns(&src);
  }
  std::vector<std::pair<int64_t, int64_t>> strip_bounds;  // [start, end) ordinals per strip
  int64_t start = 0;
  for (const Strip& strip : src.strips) {
    strip_bounds.emplace_back(start, start + strip.count);
    start += strip.count;
  }
  auto strip_of = [&](int64_t ordinal) {
    for (size_t k = 0; k < strip_bounds.size(); ++k) {
      if (ordinal >= strip_bounds[k].first && ordinal < strip_bounds[k].second) {
        return k;
      }
    }
    return strip_bounds.size();
  };
  std::map<size_t, uint32_t> strip_page;  // strip index -> first faulted page
  for (const auto& [ordinal, page] : src.fault_profile) {
    strip_page.emplace(strip_of(ordinal), page);
  }
  src.fault_profile.clear();

  std::vector<Filament> quiet;
  bool moved = false;
  for (size_t k = 0; k < strip_bounds.size(); ++k) {
    auto it = strip_page.find(k);
    if (it == strip_page.end()) {
      for (int64_t i = strip_bounds[k].first; i < strip_bounds[k].second; ++i) {
        quiet.push_back(src.filaments[static_cast<size_t>(i)]);
      }
      continue;
    }
    moved = true;
    auto [pool_it, created] = auto_page_pools_.try_emplace(it->second, -1);
    if (created) {
      pool_it->second = CreatePool();
    }
    Pool& dst = *pools_[pool_it->second];
    for (int64_t i = strip_bounds[k].first; i < strip_bounds[k].second; ++i) {
      dst.filaments.push_back(src.filaments[static_cast<size_t>(i)]);
    }
    dst.patterns_valid = false;
  }
  if (moved) {
    src.filaments = std::move(quiet);
    src.patterns_valid = false;
    finish_stack_.clear();  // pool set changed: restart frontloading from creation order
  }
}

void PoolEngine::WaitForMigrations() {
  threads::ServerThread* self = rt_->CurrentThread();
  while (applied_migrations_ < expected_migrations_) {
    if (arrived_migrations_.empty()) {
      // The rebalance plan arrived on the done broadcast but the filaments themselves are still
      // in flight from the source; sweeping now would run the iteration without them (the source
      // already dropped them), so the main thread waits for the kFilamentMigrate message.
      DFIL_CHECK(migrate_waiter_ == nullptr);
      migrate_waiter_ = self;
      rt_->BlockCurrent(WaitKind::kSweep);
      continue;
    }
    std::vector<Filament> batch = std::move(arrived_migrations_.front());
    arrived_migrations_.pop_front();
    ++applied_migrations_;
    if (batch.empty()) {
      continue;  // the source had nothing it could spare
    }
    const int pool = CreatePool();
    for (const Filament& f : batch) {
      AddFilament(pool, f.fn, f.a0, f.a1, f.a2);
    }
    rt_->ledger_.AddMigratedIn(pool, batch.size());
    finish_stack_.clear();  // pool set changed: frontloading restarts from creation order
  }
}

void PoolEngine::AcceptMigration(std::vector<Filament> filaments) {
  arrived_migrations_.push_back(std::move(filaments));
  rt_->WakeWaiter(migrate_waiter_);
}

PoolEngine::MigrationBatch PoolEngine::ExtractMigration(double fraction) {
  DFIL_CHECK(!sweep_active_);
  MigrationBatch out;
  int64_t total = 0;
  int eligible = 0;
  for (const auto& p : pools_) {
    if (p->auto_profile || p->filaments.empty()) {
      continue;
    }
    total += static_cast<int64_t>(p->filaments.size());
    ++eligible;
  }
  if (eligible <= 1) {
    return out;  // never strip the node bare — a whole-pool move would just invert the imbalance
  }
  const int64_t quota =
      std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(total) * fraction));
  std::vector<uint32_t> pages;
  int moved_pools = 0;
  for (const auto& p : pools_) {
    if (p->auto_profile || p->filaments.empty()) {
      continue;
    }
    if (moved_pools == eligible - 1) {
      break;
    }
    // Never overshoot the quota (except for the guaranteed first pool): shipping more than the
    // measured gap just inverts the imbalance and the next plan bounces the surplus back.
    if (!out.filaments.empty() &&
        static_cast<int64_t>(out.filaments.size() + p->filaments.size()) > quota) {
      break;
    }
    out.filaments.insert(out.filaments.end(), p->filaments.begin(), p->filaments.end());
    pages.insert(pages.end(), p->write_pages.begin(), p->write_pages.end());
    p->filaments.clear();
    p->strips.clear();
    p->singles.clear();
    p->patterns_valid = false;
    p->hints.clear();
    p->write_pages.clear();
    ++moved_pools;
  }
  if (!out.filaments.empty()) {
    finish_stack_.clear();  // pool set changed: frontloading restarts from creation order
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  out.pages = std::move(pages);
  return out;
}

void PoolEngine::NoteWriteAccess(uint32_t page) {
  if (!sweep_active_) {
    return;
  }
  const auto it = running_pool_.find(rt_->CurrentThread());
  if (it == running_pool_.end()) {
    return;  // not a pool runner (main-thread writes are not pool footprint)
  }
  std::vector<uint32_t>& pages = it->second.pool->write_pages;
  // Strips walk addresses in order, so consecutive writes overwhelmingly repeat the last page;
  // full dedupe happens once at extraction.
  if (pages.empty() || pages.back() != page) {
    pages.push_back(page);
  }
}

void PoolEngine::RunIterative(const std::function<bool(int)>& after_iteration) {
  for (int iter = 0;; ++iter) {
    RunSweep();
    if (!after_iteration(iter)) {
      return;
    }
  }
}

void PoolEngine::EnsureRunnerForRemainingPools() {
  if (next_pool_ >= order_.size() || spare_runners_ > 0) {
    return;
  }
  ++spare_runners_;
  rt_->SpawnThread([this] { RunnerLoop(); });
}

void PoolEngine::RunnerLoop() {
  bool counted_spare = true;
  for (;;) {
    if (next_pool_ >= order_.size()) {
      break;
    }
    if (counted_spare) {
      --spare_runners_;
      counted_spare = false;
    }
    Pool* pool = order_[next_pool_++];
    pool->running = true;
    running_pool_[rt_->CurrentThread()] = RunnerPosition{pool, 0};
    rt_->ledger_.EnsurePool(pool->id);  // the runner's charges book to the row without a check
    rt_->CurrentThread()->set_profile_pool(pool->id);
    rt_->TraceBegin("pool", "pool " + std::to_string(pool->id));
    ExecutePool(pool);
    rt_->TraceEnd();
    rt_->CurrentThread()->set_profile_pool(TimeLedger::kOtherRun);
    running_pool_.erase(rt_->CurrentThread());
    pool->running = false;
    pool->completed = true;
    finish_stack_.push_back(pool);
    if (--pools_remaining_ == 0 && sweep_waiter_ != nullptr) {
      threads::ServerThread* waiter = sweep_waiter_;
      sweep_waiter_ = nullptr;
      rt_->Wake(waiter);
    }
  }
  if (counted_spare) {
    --spare_runners_;
  }
}

void PoolEngine::IssuePrefetchHints(Pool* pool) {
  if (pool->hints.empty()) {
    return;
  }
  dsm::DsmNode& dsm = rt_->dsm();
  // Drop hints whose last prefetch died untouched (the footprint shifted), then collect the
  // pages whose learned period puts a fault in THIS run. A hint with an unknown period (seen
  // only one fault so far) is withheld: issuing it blind would prefetch the idle buffer of a
  // double-buffered program on the off sweeps.
  std::vector<Pool::HintRecord>& hints = pool->hints;
  hints.erase(std::remove_if(hints.begin(), hints.end(),
                             [&](const Pool::HintRecord& h) {
                               return dsm.ConsumePrefetchWasted(h.page);
                             }),
              hints.end());
  std::vector<uint32_t> due;
  for (const Pool::HintRecord& h : hints) {
    if (h.period > 0 && (pool->runs - h.last_fault_run) % h.period == 0) {
      due.push_back(h.page);
    }
  }
  // Issue the due pages as bulk prefetches: one request per contiguous run.
  std::sort(due.begin(), due.end());
  due.erase(std::unique(due.begin(), due.end()), due.end());
  size_t i = 0;
  while (i < due.size()) {
    size_t j = i + 1;
    while (j < due.size() && due[j] == due[j - 1] + 1) {
      ++j;
    }
    dsm.Prefetch(due[i], static_cast<int>(j - i), dsm::AccessMode::kRead);
    i = j;
  }
}

void PoolEngine::ExecutePool(Pool* pool) {
  if (!pool->patterns_valid) {
    BuildPatterns(pool);
  }
  ++pool->runs;
  if (rt_->config().balancer.enabled) {
    pool->write_pages.clear();  // a migrated pool ships its LAST sweep's footprint
  }
  if (rt_->config().dsm.prefetch_hints) {
    IssuePrefetchHints(pool);
  }
  const sim::CostModel& costs = rt_->costs();
  FilamentStats& fs = rt_->fil_stats();
  NodeEnv& env = rt_->env();
  RunnerPosition& pos = running_pool_[rt_->CurrentThread()];
  int64_t ordinal = 0;
  for (const Strip& s : pool->strips) {
    const bool inlined = s.count >= kMinStripLength;
    const SimTime per_filament = inlined ? costs.filament_switch_inlined : costs.filament_switch;
    for (int64_t k = 0; k < s.count; ++k) {
      pos.ordinal = ordinal++;
      rt_->Charge(TimeCategory::kFilamentExec, per_filament);
      fs.filaments_run++;
      if (inlined) {
        fs.filaments_run_inlined++;
      }
      s.fn(env, s.a0 + k * s.d0, s.a1 + k * s.d1, s.a2 + k * s.d2);
    }
    rt_->ledger_.AddFilamentsRun(pool->id, static_cast<uint64_t>(s.count));
  }
}

void PoolEngine::OnThreadBlockedOnPage(PageId page) {
  if (!sweep_active_) {
    return;
  }
  auto it = running_pool_.find(rt_->CurrentThread());
  if (it == running_pool_.end()) {
    return;  // not a pool runner (e.g. the main thread faulting during initialization)
  }
  Pool* pool = it->second.pool;
  pool->faulted_this_sweep = true;
  if (rt_->config().dsm.prefetch_hints) {
    auto hit = std::find_if(pool->hints.begin(), pool->hints.end(),
                            [&](const Pool::HintRecord& h) { return h.page == page; });
    if (hit == pool->hints.end()) {
      pool->hints.push_back(Pool::HintRecord{page, pool->runs, 0});
    } else if (pool->runs > hit->last_fault_run) {
      // Refault in a later run: the distance is this page's refault period (1 for a stable
      // footprint, 2 for double-buffered programs). Repeated faults within one run don't count.
      hit->period = pool->runs - hit->last_fault_run;
      hit->last_fault_run = pool->runs;
    }
  }
  if (pool->auto_profile) {
    pool->fault_profile.emplace_back(it->second.ordinal, page);
  }
  rt_->ledger_.AddFault(pool->id);
  rt_->fil_stats().pool_suspensions++;
  // The paper's key move: a fault starts a new server thread on a different pool, so the page
  // round-trip is overlapped with the execution of other filaments.
  EnsureRunnerForRemainingPools();
}

}  // namespace dfil::core
