// simbench — one repetition of one SimBench workload per process.
//
//   simbench --workload <s1_steady|geo_chaos|storm_1m> --seed <n>
//            [--traced] [--scale <f>] [--spans <file>] [--corrupt-digest]
//   simbench --list-metrics
//
// Prints one JSON object on stdout: every metric this repetition measured,
// the procedure counts, the delay samples, the digest of the simulated
// results and any failed output check. Exit status 0 = every check passed, 1 = a check failed,
// 2 = bad usage or an exception. run.py aggregates repetitions.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <stdexcept>
#include <string>

#include "simbench.h"

// ------------------------------------------------------------------------
// Counting allocator: every global operator new in this binary is tallied.
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace simbench {

std::uint64_t alloc_calls() { return g_allocs.load(std::memory_order_relaxed); }

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t proc_status_bytes(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      std::sscanf(line + len + 1, "%llu", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kb) * 1024;
}

// --------------------------------------------------------------------- spans

Tracer& tracer() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name, const char* layer) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = current_;
  s.allocs = alloc_calls();
  s.start_s = host_now_s();
  spans.push_back(std::move(s));
  current_ = static_cast<int>(spans.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  Span& s = spans[static_cast<std::size_t>(id)];
  s.end_s = host_now_s();
  s.allocs = alloc_calls() - s.allocs;
  s.peak_rss = proc_status_bytes("VmHWM");
  current_ = s.parent;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[spans[i].layer] += spans[i].end_s - spans[i].start_s - child[i];
  return self;
}

std::string Tracer::to_json() const {
  std::string out = "{\"run_id\":" + std::to_string(run_id) + ",\"spans\":[";
  char buf[512];
  const double t0 = spans.empty() ? 0.0 : spans.front().start_s;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"parent\":%d,"
                  "\"start_s\":%.9f,\"end_s\":%.9f,\"allocs\":%llu,"
                  "\"peak_rss\":%llu}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.layer.c_str(),
                  s.parent, s.start_s - t0, s.end_s - t0,
                  static_cast<unsigned long long>(s.allocs),
                  static_cast<unsigned long long>(s.peak_rss));
    out += buf;
  }
  return out + "]}";
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

// ------------------------------------------------------------------ metrics

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = {
      // End to end: what the simulator costs its user (host) ...
      {"setup_s", "s", Tag::kHost},
      {"wall_s", "s", Tag::kHost},
      {"procs_per_s", "1/s", Tag::kHost},
      {"peak_rss_mb", "MiB", Tag::kHost},
      {"allocs_per_proc", "count", Tag::kHost},
      // ... and what the modelled MME did (sim; identical for a seed).
      {"delay_p50_ms", "ms", Tag::kSim},
      {"delay_p99_ms", "ms", Tag::kSim},
      {"attach_p99_ms", "ms", Tag::kSim},
      {"sr_p99_ms", "ms", Tag::kSim},
      {"tau_p99_ms", "ms", Tag::kSim},
      {"proc_ok_ratio", "ratio", Tag::kSim},
      // Per layer.
      {"sim.engine.events_per_proc", "count", Tag::kLayer},
      {"sim.engine.scheduled_per_proc", "count", Tag::kLayer},
      {"sim.engine.host_ns_per_event", "ns", Tag::kLayer},
      {"sim.engine.queue_depth_max", "count", Tag::kLayer},
      {"sim.engine.event_ns", "ns", Tag::kLayer},
      {"sim.cpu.mmp_util_max", "ratio", Tag::kLayer},
      {"sim.cpu.mmp_backlog_ms_max", "ms", Tag::kLayer},
      {"sim.network.msgs_per_proc", "count", Tag::kLayer},
      {"sim.network.bytes_per_proc", "B", Tag::kLayer},
      {"sim.network.fault_drops", "count", Tag::kLayer},
      {"proto.codec.wire_size_ns", "ns", Tag::kLayer},
      {"proto.codec.encode_ns", "ns", Tag::kLayer},
      {"proto.codec.decode_ns", "ns", Tag::kLayer},
      {"proto.codec.allocs_per_encode", "count", Tag::kLayer},
      {"epc.fabric.hop_ns", "ns", Tag::kLayer},
      {"epc.fabric.batch_fold_ratio", "ratio", Tag::kLayer},
      {"epc.fabric.dead_drops", "count", Tag::kLayer},
      {"epc.fabric.allocs_per_hop", "count", Tag::kLayer},
      {"epc.reliable.retransmits_per_proc", "count", Tag::kLayer},
      {"epc.reliable.abandoned", "count", Tag::kLayer},
      {"epc.reliable.dups_suppressed", "count", Tag::kLayer},
      {"epc.ue_context.load_ns_per_ue", "ns", Tag::kLayer},
      {"epc.ue_context.bytes_per_ue", "B", Tag::kLayer},
      {"epc.ue_context.footprint_per_ue", "B", Tag::kLayer},
      {"epc.ue_context.find_ns", "ns", Tag::kLayer},
      {"epc.ue_context.allocs_per_ue", "count", Tag::kLayer},
      {"hash.ring.owner_ns", "ns", Tag::kLayer},
      {"mme.vm.requests_per_proc", "count", Tag::kLayer},
      {"mme.vm.forwards_per_proc", "count", Tag::kLayer},
      {"mme.vm.replicas_pushed_per_proc", "count", Tag::kLayer},
      {"core.mlb.relays_per_proc", "count", Tag::kLayer},
      {"core.mlb.util_max", "ratio", Tag::kLayer},
      {"core.mlb.overload_rejects", "count", Tag::kLayer},
      {"core.mlb.overload_drops", "count", Tag::kLayer},
      {"core.mmp.overload_sheds", "count", Tag::kLayer},
      {"core.mmp.forwarded_to_master", "count", Tag::kLayer},
      {"core.steering.imbalance", "ratio", Tag::kLayer},
      {"core.geo.offloads", "count", Tag::kLayer},
      {"core.geo.rejects", "count", Tag::kLayer},
      {"core.cluster.epoch_s", "s", Tag::kLayer},
      {"testbed.build_s", "s", Tag::kLayer},
      {"testbed.make_ues_s", "s", Tag::kLayer},
      {"testbed.register_s", "s", Tag::kLayer},
      {"workload.arrival_drop_ratio", "ratio", Tag::kLayer},
      {"trace.self_s.bench", "s", Tag::kLayer},
      {"trace.self_s.testbed", "s", Tag::kLayer},
      {"trace.self_s.workload", "s", Tag::kLayer},
      {"trace.self_s.sim", "s", Tag::kLayer},
      {"trace.self_s.core", "s", Tag::kLayer},
      {"trace.self_s.mme", "s", Tag::kLayer},
      {"trace.self_s.epc", "s", Tag::kLayer},
      {"trace.self_s.replay", "s", Tag::kLayer},
      {"trace.self_s.teardown", "s", Tag::kLayer},
      {"run.trace_overhead_s", "s", Tag::kLayer},
      {"run.attributed_share", "ratio", Tag::kLayer},
      {"run.unattributed_s", "s", Tag::kLayer},
  };
  return table;
}

}  // namespace simbench

namespace {

using namespace simbench;

const char* tag_name(Tag t) {
  switch (t) {
    case Tag::kHost: return "host";
    case Tag::kSim: return "sim";
    case Tag::kLayer: return "layer";
  }
  return "?";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table() {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricDef& m : metric_table()) {
    out += std::string(first ? "" : ",") + "{\"name\":\"" + m.name +
           "\",\"unit\":\"" + m.unit + "\",\"tag\":\"" + tag_name(m.tag) + "\"}";
    first = false;
  }
  out += "],\"workloads\":[";
  first = true;
  for (const std::string& w : workload_names()) {
    out += std::string(first ? "" : ",") + "\"" + w + "\"";
    first = false;
  }
  out += "],\"build\":{\"compiler\":\"" SIMBENCH_COMPILER
         "\",\"build_type\":\"" SIMBENCH_BUILD_TYPE
         "\",\"flags\":\"" SIMBENCH_FLAGS "\"}}";
  std::puts(out.c_str());
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

void print_result(const Options& opt, const Result& res) {
  std::string out = "{\"workload\":\"" + opt.workload + "\",\"seed\":" +
                    std::to_string(opt.seed) + ",\"traced\":" +
                    (opt.traced ? "true" : "false");
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(res.digest));
  out += std::string(",\"digest\":\"") + digest + "\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, v] : res.metrics) {
    out += std::string(first ? "" : ",") + "\"" + name + "\":" + num(v);
    first = false;
  }
  out += "},\"counts\":{";
  first = true;
  for (const auto& [name, v] : res.counts) {
    out += std::string(first ? "" : ",") + "\"" + name + "\":" + std::to_string(v);
    first = false;
  }
  out += "},\"failures\":[";
  first = true;
  for (const std::string& f : res.failures) {
    out += std::string(first ? "" : ",") + "\"" + escape(f) + "\"";
    first = false;
  }
  // Sorted delay samples (ms) per procedure bucket; run.py pools them
  // across the worlds of a seed.
  out += "],\"samples\":{";
  first = true;
  for (const auto& [bucket, xs] : res.samples) {
    out += std::string(first ? "" : ",") + "\"" + bucket + "\":[";
    for (std::size_t i = 0; i < xs.size(); ++i)
      out += (i == 0 ? "" : ",") + num(xs[i]);
    out += "]";
    first = false;
  }
  out += "}}";
  std::puts(out.c_str());
}

void write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs(text.c_str(), f);
  std::fclose(f);
}

int usage() {
  std::fprintf(stderr,
               "usage: simbench --workload <name> --seed <n> [--traced] "
               "[--scale <f>] [--spans <file>] [--corrupt-digest]\n"
               "       simbench --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list-metrics") {
      print_table();
      return 0;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--scale" && has_value) {
      opt.scale = std::strtod(argv[++i], nullptr);
    } else if (a == "--spans" && has_value) {
      opt.span_file = argv[++i];
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--corrupt-digest") {
      opt.corrupt_digest = true;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !(opt.scale > 0.0)) return usage();

  try {
    tracer().enabled = opt.traced;
    tracer().run_id = opt.seed;
    Result res = run_workload(opt);
    if (opt.traced) {
      const auto self = tracer().self_seconds();
      for (const char* layer : {"bench", "testbed", "workload", "sim", "core",
                                "mme", "epc", "replay", "teardown"}) {
        const auto it = self.find(layer);
        res.set(std::string("trace.self_s.") + layer,
                it == self.end() ? 0.0 : it->second);
      }
      if (!opt.span_file.empty()) write_file(opt.span_file, tracer().to_json());
    }
    if (opt.corrupt_digest) res.digest ^= 1;
    print_result(opt, res);
    return res.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 2;
  }
}
