// Metrics registry: named counters and log-scale histograms behind one uniform JSON export.
//
// The runtime's stats structs (DsmStats, MessageStats, FilamentStats, PacketStats) stay as the
// zero-overhead hot-path counters, each declared from one field list (src/common/stats.h), but
// they are *subsumed* at report time: the metrics writer (src/core/metrics_io.h) walks those lists
// and turns every counter into a named registry counter, so one JSON schema covers everything a
// run produces — struct counters, live histograms (fault latency, barrier wait, serve queue
// depth), and per-page fault heat. tools/dfil consumes that JSON to print the paper's Figure 9 /
// Figure 10 tables. Naming scheme: DESIGN.md §9.
#ifndef DFIL_COMMON_METRICS_H_
#define DFIL_COMMON_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace dfil {

// Log-scale histogram: bucket 0 holds values < 1, bucket k (k >= 1) holds [2^(k-1), 2^k).
// Recording is O(1) and allocation-free; percentile queries interpolate within a bucket, so they
// are estimates with bucket (power-of-two) resolution — plenty for p50/p99 latency reporting.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  void Record(double value);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  // q in [0, 1]; returns 0 on an empty histogram.
  double Percentile(double q) const;

  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }
  static double BucketLow(size_t i);
  static double BucketHigh(size_t i);

  void Merge(const Histogram& other);

  // {"count":N,"sum":S,"min":m,"max":M,"p50":..,"p90":..,"p99":..,"buckets":[[lo,hi,n],...]}
  // (non-empty buckets only).
  void WriteJson(std::ostream& os) const;

 private:
  static size_t BucketOf(double value);

  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::array<uint64_t, kBuckets> buckets_{};
};

// A per-node (or per-run) registry of named counters and histograms. Deterministic iteration
// (std::map) so exports are byte-stable across runs of the same schedule.
class MetricsRegistry {
 public:
  void Inc(const std::string& name, uint64_t delta = 1) { counters_[name] += delta; }
  void Set(const std::string& name, uint64_t value) { counters_[name] = value; }
  uint64_t Counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  Histogram& Hist(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, uint64_t>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }
  bool empty() const { return counters_.empty() && histograms_.empty(); }

  // Per-epoch time-series rows, one map per synchronization point in epoch order; serialized by
  // metrics_io as the per-node "epochs" array of the dfil-metrics-v2 schema.
  void AddEpochRow(std::map<std::string, double> row) { epochs_.push_back(std::move(row)); }
  const std::vector<std::map<std::string, double>>& epochs() const { return epochs_; }

  // {"counters":{...},"histograms":{...}}; `indent` prefixes every line for nested pretty
  // printing.
  void WriteJson(std::ostream& os, const std::string& indent) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
  std::vector<std::map<std::string, double>> epochs_;
};

// One named histogram of a registry, looked up on first use and cached after, for call sites
// that record per message or per fault. A registry's map nodes never move, so the cached pointer
// stays valid while the registry lives; a histogram nobody records stays absent from the registry
// and from its export.
class HistogramRef {
 public:
  explicit HistogramRef(const char* name) : name_(name) {}

  Histogram& In(MetricsRegistry& registry) {
    if (registry_ != &registry) {
      registry_ = &registry;
      hist_ = &registry.Hist(name_);
    }
    return *hist_;
  }

 private:
  const char* name_;
  MetricsRegistry* registry_ = nullptr;
  Histogram* hist_ = nullptr;
};

}  // namespace dfil

#endif  // DFIL_COMMON_METRICS_H_
