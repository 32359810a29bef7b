#ifndef ESSDDS_OBS_METRICS_H_
#define ESSDDS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace essdds::obs {

/// Snapshot of one histogram's internals: plain integers, no atomics, so it
/// can be copied, shipped across a wire, and folded into another histogram.
/// The admin plane (net::AdminClient) pulls these from every host of a
/// socket cluster and merges them into one cluster-wide histogram via
/// Histogram::MergeState. Defined outside the ESSDDS_METRICS gate: wire
/// codecs must decode peer snapshots even in a build whose own instruments
/// are stubs.
struct HistogramState {
  static constexpr size_t kBuckets = 65;
  uint64_t buckets[kBuckets] = {};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  friend bool operator==(const HistogramState&,
                         const HistogramState&) = default;
};

/// True when the build carries the metrics/tracing layer. With
/// -DESSDDS_METRICS=OFF every class in this header collapses to a stateless
/// no-op stub with the same API, so instrumented call sites compile away
/// without #ifdefs. The contract: an OFF build must produce byte-identical
/// results and NetworkStats on every existing test — metrics are strictly
/// passive observers.
#if ESSDDS_METRICS
inline constexpr bool kMetricsEnabled = true;
#else
inline constexpr bool kMetricsEnabled = false;
#endif

constexpr bool MetricsCompiledIn() { return kMetricsEnabled; }

#if ESSDDS_METRICS

/// Monotonic event count. Recording is lock-free (relaxed atomics), so scan
/// workers may increment concurrently with the driver thread.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. a bucket's record count).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-boundary log-scale histogram over uint64 samples (latencies in
/// virtual microseconds, batch sizes, message sizes). Bucket 0 holds the
/// value 0; bucket i (1..64) holds [2^(i-1), 2^i). Values beyond the last
/// finite boundary land in the top bucket; `max` is tracked exactly, so a
/// quantile estimate is never reported above the largest observed sample.
///
/// Recording is lock-free (relaxed atomics + a CAS loop for the max):
/// concurrent Record() from scan workers is safe. Read-side methods
/// (Quantile, Summarize) are approximate under concurrent writes and exact
/// once writers quiesce — which is when the simulator reads them.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void Record(uint64_t value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Quantile estimate for q in [0, 1]: the upper boundary of the bucket
  /// holding the q-th sample, clamped to the exact max. Zero samples yield
  /// a well-defined 0 (as do q <= 0 on any data).
  uint64_t Quantile(double q) const;

  struct Summary {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
  };
  Summary Summarize() const;

  /// Folds another histogram's samples into this one (aggregation across
  /// runs). Bucket-granular: count/sum/max are exact, quantiles are as
  /// approximate as the source buckets.
  void MergeFrom(const Histogram& other);

  /// Copies the current contents into a plain snapshot (approximate under
  /// concurrent writers, exact once they quiesce — same contract as the
  /// other read-side methods).
  HistogramState CaptureState() const;

  /// Folds a snapshot's samples into this histogram — MergeFrom for state
  /// that crossed a process boundary.
  void MergeState(const HistogramState& state);

  void Reset();

 private:
  static size_t BucketOf(uint64_t value) {
    if (value == 0) return 0;
    size_t b = 0;
    while (value != 0) {
      value >>= 1;
      ++b;
    }
    return b;  // bit_width: 1 -> bucket 1, [2,3] -> 2, [4,7] -> 3, ...
  }

  /// Largest value the bucket can hold.
  static uint64_t UpperBound(size_t bucket) {
    if (bucket >= 64) return ~uint64_t{0};
    return (uint64_t{1} << bucket) - 1;
  }

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Named metric directory. One registry lives on each simulated network;
/// sites, clients, and the scan pool obtain their instruments once (at
/// construction/registration) and record through the returned references —
/// the hot path never touches the name map.
///
/// Thread safety: instrument *lookup/creation* is confined to the single
/// simulator driver thread (sites register and clients are created there);
/// *recording* through the returned references is lock-free and safe from
/// scan workers. References stay valid for the registry's lifetime.
class MetricRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// The one reset: zeroes every counter, gauge, and histogram while
  /// keeping all registrations (references held by call sites stay valid).
  /// Network::ResetStats() calls this so a phase boundary resets the flat
  /// NetworkStats and the registry together.
  void ResetAll();

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,max,
  /// p50,p95,p99}}} with keys in lexicographic order.
  std::string ToJson() const;

  /// Full-registry snapshots in lexicographic name order — what the admin
  /// wire ships to a puller. Creation-free: a registry that never saw a
  /// metric yields empty vectors.
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const;
  std::vector<std::pair<std::string, HistogramState>> HistogramStates() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

#else  // !ESSDDS_METRICS — stateless stubs, same API, everything inlines away

class Counter {
 public:
  void Increment(uint64_t = 1) {}
  uint64_t value() const { return 0; }
  void Reset() {}
};

class Gauge {
 public:
  void Set(int64_t) {}
  int64_t value() const { return 0; }
  void Reset() {}
};

class Histogram {
 public:
  static constexpr size_t kBuckets = 65;
  void Record(uint64_t) {}
  uint64_t count() const { return 0; }
  uint64_t sum() const { return 0; }
  uint64_t max() const { return 0; }
  uint64_t Quantile(double) const { return 0; }
  struct Summary {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    uint64_t p50 = 0;
    uint64_t p95 = 0;
    uint64_t p99 = 0;
  };
  Summary Summarize() const { return {}; }
  void MergeFrom(const Histogram&) {}
  HistogramState CaptureState() const { return {}; }
  void MergeState(const HistogramState&) {}
  void Reset() {}
};

class MetricRegistry {
 public:
  Counter& counter(std::string_view) { return counter_; }
  Gauge& gauge(std::string_view) { return gauge_; }
  Histogram& histogram(std::string_view) { return histogram_; }
  void ResetAll() {}
  std::string ToJson() const { return "{}"; }
  std::vector<std::pair<std::string, uint64_t>> CounterValues() const {
    return {};
  }
  std::vector<std::pair<std::string, int64_t>> GaugeValues() const {
    return {};
  }
  std::vector<std::pair<std::string, HistogramState>> HistogramStates() const {
    return {};
  }

 private:
  // One shared stub per kind: references handed out are all the same
  // stateless object.
  Counter counter_;
  Gauge gauge_;
  Histogram histogram_;
};

#endif  // ESSDDS_METRICS

}  // namespace essdds::obs

#endif  // ESSDDS_OBS_METRICS_H_
