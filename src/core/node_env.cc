#include "src/core/node_env.h"

#include "src/core/forkjoin.h"
#include "src/core/node_runtime.h"
#include "src/core/pool_engine.h"

namespace dfil::core {

NodeId NodeEnv::node() const { return rt_->id(); }
int NodeEnv::nodes() const { return rt_->config().nodes; }
SimTime NodeEnv::Now() const { return rt_->Clock(); }

void NodeEnv::ChargeWork(SimTime cost) { rt_->Charge(TimeCategory::kWork, cost); }
void NodeEnv::Charge(TimeCategory category, SimTime cost) { rt_->Charge(category, cost); }

std::byte* NodeEnv::AccessBytes(GlobalAddr addr, size_t len, dsm::AccessMode mode) {
  if (mode == dsm::AccessMode::kWrite && rt_->config().balancer.enabled) {
    // Write-footprint capture for rebalance page re-homing (DESIGN.md §13): each write lands in
    // the current runner's pool record, so a migrated pool carries the pages it produces.
    rt_->pools().NoteWriteAccess(rt_->dsm().layout().PageOf(addr));
  }
  return rt_->dsm().Access(addr, len, mode);
}

PoolHandle NodeEnv::CreatePool() { return PoolHandle{rt_->pools().CreatePool()}; }

void NodeEnv::CreateFilament(PoolHandle pool, FilamentFn fn, int64_t a0, int64_t a1, int64_t a2) {
  DFIL_CHECK(pool.valid()) << "CreateFilament needs a handle from CreatePool";
  rt_->pools().AddFilament(pool.id, fn, a0, a1, a2);
}

void NodeEnv::CreateAutoFilament(FilamentFn fn, int64_t a0, int64_t a1, int64_t a2) {
  rt_->pools().AddAutoFilament(fn, a0, a1, a2);
}

void NodeEnv::RunPools() { rt_->pools().RunSweep(); }

void NodeEnv::RunIterative(const std::function<bool(int)>& after_iteration) {
  rt_->pools().RunIterative(after_iteration);
}

FjResult NodeEnv::RunForkJoin(FjFn root, const FjArgs& args) { return rt_->fj().Run(root, args); }
FjHandle NodeEnv::Fork(FjFn fn, const FjArgs& args) { return rt_->fj().Fork(fn, args); }
FjResult NodeEnv::Join(FjHandle& handle) { return rt_->fj().Join(handle); }

double NodeEnv::Reduce(double value, ReduceOp op) { return rt_->Reduce(value, op); }

void NodeEnv::SendData(NodeId dst, uint32_t tag, std::span<const std::byte> bytes) {
  rt_->ChannelSend(dst, tag, bytes);
}

void NodeEnv::BroadcastData(uint32_t tag, std::span<const std::byte> bytes) {
  rt_->ChannelBroadcast(tag, bytes);
}

std::vector<std::byte> NodeEnv::RecvData(NodeId src, uint32_t tag) {
  return rt_->ChannelRecv(src, tag);
}

void NodeEnv::EnterCritical() { rt_->EnterCritical(); }
void NodeEnv::ExitCritical() { rt_->ExitCritical(); }

}  // namespace dfil::core
