// SimBench — whole-run benchmark of the SCALE simulator.
//
// One process runs one repetition of one workload (fresh world, cold
// process) and prints one JSON line. run.py repeats processes and reduces
// them to the end-to-end metrics; this header is what the binary's three
// translation units share: host counters, in-memory spans, the metric
// table and the per-run result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace simbench {

// ------------------------------------------------------------ host counters

/// `operator new` calls made by this process so far (simbench.cpp
/// interposes the global allocator). Exact for a given toolchain.
std::uint64_t alloc_calls();
/// Monotonic host clock, seconds.
double host_now_s();
/// /proc/self/status field in bytes ("VmHWM", "VmRSS"); 0 if unavailable.
std::uint64_t proc_status_bytes(const char* field);

// --------------------------------------------------------------------- spans

/// One benchmark call into a layer. Spans are recorded only in the traced
/// run, kept in memory, and written out when the run ends.
struct Span {
  std::string name;
  std::string layer;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t allocs = 0;     ///< operator new calls inside the span
  std::uint64_t peak_rss = 0;   ///< VmHWM (bytes) when the span closed
};

class Tracer {
 public:
  bool enabled = false;
  std::uint64_t run_id = 0;
  std::vector<Span> spans;

  int open(const char* name, const char* layer);
  void close(int id);
  /// Self time per layer: each span's duration minus what its direct
  /// children cover.
  std::map<std::string, double> self_seconds() const;
  std::string to_json() const;

 private:
  int current_ = -1;
};

Tracer& tracer();

/// RAII span; a no-op when tracing is off.
class Scope {
 public:
  Scope(const char* name, const char* layer)
      : id_(tracer().enabled ? tracer().open(name, layer) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// ------------------------------------------------------------------ results

enum class Tag { kHost, kSim, kLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  Tag tag;
};

/// Every metric the binary can emit, in print order.
const std::vector<MetricDef>& metric_table();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  /// Population/load multiplier; 1 = the benchmark, < 1 for self-checks.
  double scale = 1.0;
  /// Flip one bit of the reported digest (self-check of the digest gate).
  bool corrupt_digest = false;
  /// Where the traced run writes its spans ("" = don't write).
  std::string span_file;
};

struct Result {
  std::map<std::string, double> metrics;  ///< name -> value (table units)
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;  ///< failed output checks
  /// Sorted delay samples (ms) per procedure bucket.
  std::map<std::string, std::vector<double>> samples;

  void set(const std::string& name, double v) { metrics[name] = v; }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

Result run_workload(const Options& opt);
const std::vector<std::string>& workload_names();

// ----------------------------------------------------------------- digests

class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace simbench
