#include "src/core/config.h"

#include <cstdio>
#include <string>

#include "src/threads/stack.h"

namespace dfil::core {
namespace {

// Canonical serialization sink for ClusterConfig::Digest(): appends "key=value;" pairs and
// FNV-1a-hashes the resulting byte stream. Field ORDER and NAMES are part of the digest contract
// — appending new fields at the end changes the digest for configs that set them away from the
// hash of their textual default, which is exactly the desired behaviour (a new schedule-affecting
// knob makes old and new runs provably non-comparable only when it actually differs... but since
// the serialization always includes every field, ANY addition rolls the digest; `dfil diff` treats
// that as a config difference and says so).
class DigestWriter {
 public:
  void Field(const char* key, uint64_t v) { Append(key, std::to_string(v)); }
  void Field(const char* key, uint32_t v) { Append(key, std::to_string(v)); }
  void Field(const char* key, int64_t v) { Append(key, std::to_string(v)); }
  void Field(const char* key, int v) { Append(key, std::to_string(v)); }
  void Field(const char* key, bool v) { Append(key, v ? "1" : "0"); }
  void Field(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Append(key, buf);
  }

  uint64_t hash() const { return hash_; }

 private:
  void Append(const char* key, const std::string& value) {
    for (const char* p = key; *p != '\0'; ++p) {
      Mix(static_cast<unsigned char>(*p));
    }
    Mix('=');
    for (const char c : value) {
      Mix(static_cast<unsigned char>(c));
    }
    Mix(';');
  }
  void Mix(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001B3ULL;  // FNV-1a 64-bit prime
  }

  uint64_t hash_ = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
};

// True when the plan can make a raw broadcast frame vanish (drop, burst loss, or a rule with a
// nonzero drop probability): the done broadcast then needs per-node reliable delivery.
bool PlanCanDropFrames(const sim::FaultPlan& plan) {
  if (plan.loss_rate > 0.0 || plan.burst.enabled()) {
    return true;
  }
  for (const sim::FaultRule& rule : plan.rules) {
    if (rule.drop > 0.0) {
      return true;
    }
  }
  return false;
}

bool InUnitInterval(double v) { return v >= 0.0 && v <= 1.0; }

}  // namespace

sim::FaultPlan ClusterConfig::EffectiveFaultPlan() const {
  sim::FaultPlan plan = fault_plan;
  if (plan.seed == 0) {
    plan.seed = seed ^ 0x9E3779B97F4A7C15ULL;  // derived, so `seed` alone replays the run
  }
  return plan;
}

uint64_t ClusterConfig::Digest() const {
  // Knobs that became constants, or that are always on, keep their keys at the fixed value, so
  // the fingerprint of every config that can still be built is unchanged.
  DigestWriter w;
  w.Field("nodes", nodes);
  w.Field("network", network == NetworkKind::kSharedEthernet ? 0 : 1);
  w.Field("seed", seed);
  w.Field("page_shift", page_shift);
  w.Field("wake_at_front", wake_at_front);
  w.Field("max_server_threads", kMaxServerThreads);
  w.Field("stack_bytes", threads::kDefaultStackBytes);
  w.Field("reliable_broadcast", reliable_broadcast);
  w.Field("barrier", static_cast<int>(barrier));
  w.Field("max_virtual_time", max_virtual_time);

  const sim::CostModel& c = costs;
  w.Field("cost.filament_create", c.filament_create);
  w.Field("cost.filament_switch", c.filament_switch);
  w.Field("cost.filament_switch_inlined", c.filament_switch_inlined);
  w.Field("cost.thread_context_switch", c.thread_context_switch);
  w.Field("cost.thread_create", c.thread_create);
  w.Field("cost.fork_inline", c.fork_inline);
  w.Field("cost.fault_handle", c.fault_handle);
  w.Field("cost.page_service", c.page_service);
  w.Field("cost.page_install", c.page_install);
  w.Field("cost.invalidate_handle", c.invalidate_handle);
  w.Field("cost.page_redirect", c.page_redirect);
  w.Field("cost.bulk_service_extra_page", c.bulk_service_extra_page);
  w.Field("cost.prefetch_issue", c.prefetch_issue);
  w.Field("cost.diff_twin_copy", c.diff_twin_copy);
  w.Field("cost.diff_encode_page", c.diff_encode_page);
  w.Field("cost.diff_apply_page", c.diff_apply_page);
  w.Field("cost.msg_send_overhead", c.msg_send_overhead);
  w.Field("cost.msg_recv_overhead", c.msg_recv_overhead);
  w.Field("cost.timer_overhead", c.timer_overhead);
  w.Field("cost.coalesce_frame_send", c.coalesce_frame_send);
  w.Field("cost.coalesce_frame_recv", c.coalesce_frame_recv);
  w.Field("cost.wire_bytes_per_us", c.wire_bytes_per_us);
  w.Field("cost.frame_overhead_bytes", c.frame_overhead_bytes);
  w.Field("cost.min_frame_bytes", c.min_frame_bytes);
  w.Field("cost.propagation_delay", c.propagation_delay);
  // Never read by the runtime (Packet takes its timeouts from PacketConfig): the old defaults.
  w.Field("cost.retransmit_timeout", Milliseconds(100.0));
  w.Field("cost.retransmit_timeout_max", Milliseconds(400.0));
  w.Field("cost.retransmit_limit", 60);
  w.Field("cost.matmul_mac", c.matmul_mac);
  w.Field("cost.jacobi_point", c.jacobi_point);
  w.Field("cost.quad_feval", c.quad_feval);
  w.Field("cost.tree_mac", c.tree_mac);
  w.Field("cost.loop_iter_overhead", c.loop_iter_overhead);

  w.Field("dsm.pcp", static_cast<int>(dsm.pcp));
  w.Field("dsm.mirage_window", dsm.mirage_window);
  w.Field("dsm.prefetch_detector", dsm.prefetch_detector);
  w.Field("dsm.prefetch_hints", dsm.prefetch_hints);
  w.Field("dsm.prefetch_min_run", dsm::kPrefetchMinRun);
  w.Field("dsm.prefetch_degree", dsm::kPrefetchDegree);
  w.Field("dsm.max_bulk_pages", dsm::kMaxBulkPages);
  w.Field("dsm.adapt_protocols", dsm.adapt_protocols);
  w.Field("dsm.adapt_to_diff_threshold", dsm.adapt_to_diff_threshold);
  w.Field("dsm.adapt_calm_epochs", dsm.adapt_calm_epochs);

  w.Field("packet.retransmit_timeout", packet.retransmit_timeout);
  w.Field("packet.retransmit_timeout_max", packet.retransmit_timeout_max);
  w.Field("packet.rto_min", packet.rto_min);
  w.Field("packet.retransmit_limit", net::kRetransmitLimit);
  w.Field("packet.response_cache_timeouts", net::kResponseCacheTimeouts);
  // The reply-buffering ack mode is gone: its switch here and its hold below keep their defaults.
  w.Field("packet.ack_replies", false);

  w.Field("coalesce.enabled", coalesce.enabled);
  w.Field("coalesce.max_datagram_bytes", net::kMaxDatagramBytes);
  w.Field("coalesce.request_hold", net::kRequestHold);
  w.Field("coalesce.ack_hold", Milliseconds(2.0));
  w.Field("coalesce.mutual_window", net::kMutualWindow);
  w.Field("coalesce.hold_requests", true);
  w.Field("coalesce.sync_batch", true);
  w.Field("coalesce.elide_reduce_replies", true);
  w.Field("coalesce.elided_ack_timeout", net::kElidedAckTimeout);

  w.Field("fj.steal_enabled", fj.steal_enabled);
  w.Field("fj.prune_threshold", fj.prune_threshold);
  w.Field("fj.steal_min_surplus", kStealMinSurplus);
  w.Field("fj.steal_retry", kStealRetry);
  w.Field("fj.steal_grace", kStealGrace);

  w.Field("balancer.enabled", balancer.enabled);
  w.Field("balancer.balance_trigger_ratio", balancer.balance_trigger_ratio);
  w.Field("balancer.balance_patience_epochs", balancer.balance_patience_epochs);
  w.Field("balancer.balance_cooldown_epochs", balancer.balance_cooldown_epochs);
  w.Field("balancer.balance_move_fraction", balancer.balance_move_fraction);
  w.Field("balancer.balance_rehome_pages", balancer.balance_rehome_pages);

  const sim::FaultPlan plan = EffectiveFaultPlan();
  w.Field("fault.seed", plan.seed);
  w.Field("fault.loss_rate", plan.loss_rate);
  w.Field("fault.burst", plan.burst.enabled());
  w.Field("fault.rules", plan.rules.size());
  for (const sim::FaultRule& rule : plan.rules) {
    w.Field("rule.src", static_cast<int64_t>(rule.src));
    w.Field("rule.dst", static_cast<int64_t>(rule.dst));
    w.Field("rule.type", static_cast<uint64_t>(rule.type));
    w.Field("rule.klass", static_cast<int>(rule.klass));
    w.Field("rule.seq_from", rule.seq_from);
    w.Field("rule.seq_to", rule.seq_to);
    w.Field("rule.drop", rule.drop);
    w.Field("rule.duplicate", rule.duplicate);
    w.Field("rule.delay", rule.delay);
    w.Field("rule.delay_min", rule.delay_min);
    w.Field("rule.delay_max", rule.delay_max);
  }
  w.Field("fault.stalls", plan.stalls.size());
  return w.hash();
}

std::string ClusterConfig::DigestHex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(Digest()));
  return buf;
}

std::vector<std::string> ClusterConfig::Validate() const {
  std::vector<std::string> errors;
  const auto reject = [&errors](const std::string& what) { errors.push_back(what); };

  if (nodes < 1) {
    reject("nodes must be >= 1 (got " + std::to_string(nodes) + ")");
  } else if (nodes > 64) {
    reject("nodes must be <= 64 (copysets are 64-bit masks; got " + std::to_string(nodes) + ")");
  }
  if (page_shift < 6 || page_shift > 20) {
    reject("page_shift must be in [6, 20] (got " + std::to_string(page_shift) +
           "); pages below 64 B thrash the directory, above 1 MB defeat fine-grain sharing");
  }
  if ((dsm.pcp == dsm::Pcp::kDiff || dsm.adapt_protocols) && page_shift > 15) {
    reject("page_shift must be <= 15 under the diff protocol (got " + std::to_string(page_shift) +
           "): diff runs carry 16-bit page offsets and lengths");
  }

  const sim::FaultPlan plan = EffectiveFaultPlan();
  if (!InUnitInterval(plan.loss_rate)) {
    reject("fault plan loss_rate must be a probability in [0, 1] (got " +
           std::to_string(plan.loss_rate) + ")");
  }
  if (PlanCanDropFrames(plan) && !reliable_broadcast) {
    reject("reliable_broadcast is required when the fault plan can drop frames: a lost done "
           "broadcast hangs every barrier");
  }

  if (balancer.enabled) {
    if (!InUnitInterval(balancer.balance_trigger_ratio) || balancer.balance_trigger_ratio <= 0.0) {
      reject("balancer.balance_trigger_ratio must be in (0, 1] (got " +
             std::to_string(balancer.balance_trigger_ratio) + ")");
    }
    if (balancer.balance_patience_epochs < 1) {
      reject("balancer.balance_patience_epochs must be >= 1");
    }
    if (balancer.balance_cooldown_epochs < 1) {
      reject("balancer.balance_cooldown_epochs must be >= 1");
    }
    if (balancer.balance_move_fraction <= 0.0 || balancer.balance_move_fraction > 1.0) {
      reject("balancer.balance_move_fraction must be in (0, 1] (got " +
             std::to_string(balancer.balance_move_fraction) + ")");
    }
    if (barrier == BarrierKind::kDissemination) {
      reject("balancer requires a champion barrier (tournament or central): dissemination has "
             "no node that sees every sample");
    }
  }

  return errors;
}

}  // namespace dfil::core
