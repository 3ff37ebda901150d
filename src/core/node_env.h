// NodeEnv: the per-node programming interface of Distributed Filaments.
//
// This is the surface application code programs against — the "Filaments calls" of the paper's
// Figure 1. The same application code runs unchanged at any node count; parallelism is expressed
// in terms of the problem (one filament per point, recursive forks), not the machine.
//
// A NodeEnv is handed to the node's main function and to every filament body. All of its blocking
// operations (DSM access, Join, reductions, channel receives) suspend the calling server thread
// and let other server threads run — that suspension is what overlaps communication with
// computation.
#ifndef DFIL_CORE_NODE_ENV_H_
#define DFIL_CORE_NODE_ENV_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/core/filament.h"
#include "src/core/fj_types.h"
#include "src/dsm/dsm_node.h"

namespace dfil::core {

class NodeRuntime;

// Reduction operators (a reduction is also a barrier; kBarrier computes nothing).
enum class ReduceOp : uint8_t { kBarrier, kSum, kMax, kMin, kLogicalAnd, kLogicalOr };

class NodeEnv {
 public:
  explicit NodeEnv(NodeRuntime* rt) : rt_(rt) {}
  NodeEnv(const NodeEnv&) = delete;
  NodeEnv& operator=(const NodeEnv&) = delete;

  // --- Identity and time ---
  NodeId node() const;
  int nodes() const;
  SimTime Now() const;

  // --- Work accounting: advances this node's virtual clock by the cost of real computation ---
  // Defined inline after NodeRuntime (node_runtime.h), so a filament's charge reaches
  // NodeRuntime::Charge's inline fast path with no call.
  inline void ChargeWork(SimTime cost);
  void Charge(TimeCategory category, SimTime cost);

  // --- Distributed shared memory ---
  // Blocking access: returns a pointer valid until the next potential suspension point.
  std::byte* AccessBytes(GlobalAddr addr, size_t len, dsm::AccessMode mode) {
    if (mode == dsm::AccessMode::kWrite && note_writes_) {
      NoteWrite(addr);
    }
    return dsm_->Access(addr, len, mode);
  }
  template <typename T>
  T Read(GlobalAddr addr) {
    return *reinterpret_cast<const T*>(AccessBytes(addr, sizeof(T), dsm::AccessMode::kRead));
  }
  template <typename T>
  void Write(GlobalAddr addr, const T& v) {
    *reinterpret_cast<T*>(AccessBytes(addr, sizeof(T), dsm::AccessMode::kWrite)) = v;
  }

  // --- RTC / iterative filaments ---
  PoolHandle CreatePool();
  // Creates one filament in `pool` on this node.
  void CreateFilament(PoolHandle pool, FilamentFn fn, int64_t a0 = 0, int64_t a1 = 0,
                      int64_t a2 = 0);
  // Adaptive pool assignment (paper future work): the runtime profiles the first sweep and
  // re-clusters these filaments into pools by the page they fault on.
  void CreateAutoFilament(FilamentFn fn, int64_t a0 = 0, int64_t a1 = 0, int64_t a2 = 0);
  // Runs every pool's filaments once and returns when all have executed (RTC sweep). No implicit
  // barrier: synchronize explicitly, as the paper's matmul does.
  void RunPools();
  // Runs sweeps repeatedly; after each sweep, `after_iteration(iter)` runs on this node's main
  // thread (it must contain a reduction or barrier — that is the iteration's synchronization
  // point) and returns whether to continue. Faulting pools are frontloaded across iterations.
  void RunIterative(const std::function<bool(int iter)>& after_iteration);

  // --- Fork/join filaments ---
  // Collective: call on every node. Node 0 executes `root`; all nodes serve forked work until the
  // root completes. Returns the root's result on node 0 (zeroes elsewhere).
  FjResult RunForkJoin(FjFn root, const FjArgs& args);
  // Defined inline after NodeRuntime (node_runtime.h), so a pruned fork and its join run with no
  // call.
  inline FjHandle Fork(FjFn fn, const FjArgs& args);
  inline FjResult Join(FjHandle& handle);

  // --- Reductions / barriers (collective; the synchronization points of the paper §3) ---
  double Reduce(double value, ReduceOp op);
  void Barrier() { Reduce(0.0, ReduceOp::kBarrier); }

  // --- Explicit message passing (raw UDP semantics; used by the coarse-grain programs) ---
  void SendData(NodeId dst, uint32_t tag, std::span<const std::byte> bytes);
  void BroadcastData(uint32_t tag, std::span<const std::byte> bytes);
  // Blocks until a message with this (src, tag) arrives. Like the paper's CG programs, a lost
  // message means this never returns (the run ends in a detected deadlock).
  std::vector<std::byte> RecvData(NodeId src, uint32_t tag);

  // Typed convenience wrappers for the CG programs.
  template <typename T>
  void SendValue(NodeId dst, uint32_t tag, const T& v) {
    SendData(dst, tag, std::span<const std::byte>(reinterpret_cast<const std::byte*>(&v),
                                                  sizeof(T)));
  }
  template <typename T>
  T RecvValue(NodeId src, uint32_t tag) {
    std::vector<std::byte> bytes = RecvData(src, tag);
    T v;
    DFIL_CHECK_EQ(bytes.size(), sizeof(T));
    std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }

  // --- Critical sections (paper §3: entry/exit are a single assignment) ---
  void EnterCritical();
  void ExitCritical();

  // --- Escape hatches for tests, benches, and application state ---
  NodeRuntime& runtime() { return *rt_; }
  void* user_ctx = nullptr;  // per-node application state, set by the node main

 private:
  friend class NodeRuntime;

  // Write-footprint capture for rebalance page re-homing (DESIGN.md §13).
  void NoteWrite(GlobalAddr addr);

  NodeRuntime* rt_;
  // The node's DSM and whether writes feed the balancer's footprint, set by NodeRuntime once its
  // DSM node exists (config().balancer.enabled never changes after construction).
  dsm::DsmNode* dsm_ = nullptr;
  bool note_writes_ = false;
};

}  // namespace dfil::core

#endif  // DFIL_CORE_NODE_ENV_H_
