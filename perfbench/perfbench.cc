// Serving benchmark: drives serve::Server over serve::ShardedIndex
// in-process, checks every answer, and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--smoke]
//
// Every workload serves the msong analogue (eval::LoadAnalogue, n = 100k,
// d = 420; --seed draws the queries and mutations) over S = 4 shards with
// the shipped batching window (64 queries or 1 ms) and a pool of nproc
// threads:
//
//   read_open       open loop, queries only, LCCS-LSH. The latency a lone
//                   client sees: windows hold about one query, so hashing,
//                   the CSA search, verification and the window wait dominate.
//   read_closed     closed loop, 4 threads x 16 pipelined queries, LCCS-LSH.
//                   Capacity: windows fill, so the cross-query batch engine
//                   does the work.
//   write_mixed     open loop with 30% inserts/removes and a group-commit WAL.
//                   The write side: writer thread, WAL fsync, delta scan,
//                   epoch tombstones and consolidations racing queries.
//   scan_quantized  closed loop, LinearScan with the int8 tier. The only
//                   served path through storage::QuantizedStore, and the
//                   workload that bypasses lsh and the CSA.
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
// reports per-layer metrics, timing each layer's public entry points from
// this file (see perfbench/README.md for the layer -> end-to-end map).
// Open-loop latency is timed from each request's due time, closed-loop
// latency from its submission. Any failed answer check prints
// "correct": false and exits 1.

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "eval/workloads.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/wal.h"
#include "storage/quantized_store.h"
#include "util/random.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"
#include "util/topk.h"

namespace lccs {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kK = 10;
constexpr size_t kM = 64;
constexpr size_t kLambda = 2000;
constexpr size_t kMaxBatch = 64;
constexpr uint64_t kMaxDelayUs = 1000;
constexpr size_t kClosedThreads = 4;
constexpr size_t kClosedDepth = 16;  // pipelined futures per closed-loop thread
// |core.residual_us| may be at most this share of core.query_us, or
// kResidualFloorUs on queries so short that timer and scheduling noise
// dominate: the timed stages must account for the standalone query.
constexpr double kResidualTolerance = 0.25;
constexpr double kResidualFloorUs = 20.0;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One traffic mix. Rates and thresholds were picked from repeated runs on
/// a 4-core machine (see perfbench/README.md).
struct Workload {
  const char* name;
  bool lccs;                 ///< LCCS-LSH shards, else quantized LinearScan
  bool open_loop;            ///< else closed loop, 4 x 16 outstanding
  double offered_rps;        ///< open loop: requests per second, all kinds
  double mutation_frac;      ///< open loop: share of inserts + removes
  bool wal;                  ///< group-commit WAL under the work dir
  double recall_floor;       ///< served recall@10 below this fails the run
};

constexpr Workload kWorkloads[] = {
    {"read_open", true, true, 100.0, 0.0, false, 0.90},
    {"read_closed", true, false, 0.0, 0.0, false, 0.90},
    {"write_mixed", true, true, 100.0, 0.3, true, 0.90},
    {"scan_quantized", false, false, 0.0, 0.0, false, 0.98},
};

/// Instance size. --smoke shrinks everything so the benchmark's own test can
/// run all four workloads in seconds.
struct Scale {
  size_t n = 100000;
  size_t query_pool = 32768;  ///< > 2x a closed-loop run's draws
  size_t insert_pool = 8192;
  size_t num_shards = 4;
  size_t setup_reps = 3;
  size_t recall_samples = 256;
  /// write_mixed consolidation trigger, per shard (delta rows or
  /// tombstones): at 30 mutations/s every shard crosses it about five times
  /// in a 2 s + 15 s run, and never fewer than the two the run requires
  /// (16 left some shards at exactly two).
  size_t write_rebuild_threshold = 12;
  size_t stage_queries = 128;  ///< standalone per-shard probe queries
};

Scale SmokeScale() {
  Scale s;
  s.n = 4000;
  s.query_pool = 1024;
  s.insert_pool = 1024;
  s.setup_reps = 2;
  s.recall_samples = 32;
  s.write_rebuild_threshold = 2;
  s.stage_queries = 16;
  return s;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/perfbench/work";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<read_open|read_closed|write_mixed|scan_quantized> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] [--smoke]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(args.seconds > 0.0) || args.seconds > 120.0) {
    Usage("--seconds must be in (0, 120]");
  }
  return args;
}

// --- Small statistics helpers ------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}
double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A completed request: when it completed (seconds after load start) and
/// its latency.
struct Sample {
  double done_s = 0.0;
  double latency_us = 0.0;
};

/// Splits the samples completing in [start, start + seconds) into 1-s
/// slices. Medians over slices are the run's steady figures: a burst of
/// hypervisor steal or a consolidation in one slice moves them little.
std::vector<std::vector<double>> Slices(const std::vector<Sample>& samples,
                                        double start, double seconds) {
  std::vector<std::vector<double>> slices(
      std::max<size_t>(1, static_cast<size_t>(std::floor(seconds))));
  const double width = seconds / static_cast<double>(slices.size());
  for (const Sample& s : samples) {
    const double at = (s.done_s - start) / width;
    if (at >= 0.0 && at < static_cast<double>(slices.size())) {
      slices[static_cast<size_t>(at)].push_back(s.latency_us);
    }
  }
  return slices;
}

/// Median over slices of each slice's median latency.
double SliceMedianLatency(const std::vector<std::vector<double>>& slices) {
  std::vector<double> medians;
  for (const auto& slice : slices) {
    if (!slice.empty()) medians.push_back(Percentile(slice, 0.5));
  }
  return Median(medians);
}


/// Share of CPU time the hypervisor stole since `prev` (aggregate
/// /proc/stat jiffies); updates `prev`. Context for noisy virtual machines.
double StealFrac(std::array<double, 2>* prev) {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  stat >> cpu;
  for (double& x : v) stat >> x;
  const double total = std::accumulate(v, v + 8, 0.0);
  const double frac = Ratio(v[7] - (*prev)[1], total - (*prev)[0]);
  *prev = {total, v[7]};
  return frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

/// Ordered "name": number pairs, printed as one JSON object.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    fields_.emplace_back(key, buf);
  }
  void Str(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Runs a callable when the scope ends, exception paths included (joins the
/// load threads so none outlives the data it uses).
template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F f) : f_(std::move(f)) {}
  ~ScopeExit() { f_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  F f_;
};

/// Unbounded FIFO between the open-loop sender and a completion waiter.
template <typename T>
class Channel {
 public:
  void Push(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks for the next item; false once closed and drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

// --- Inputs ------------------------------------------------------------------

/// Everything the run feeds the program. The base rows are the fixed msong
/// analogue; --seed permutes the held-out rows into the query pool and the
/// insert payloads and drives the mutation schedule, so the same seed gives
/// the same inputs.
struct Inputs {
  dataset::Dataset data;  ///< base rows (ids 0..n-1)
  util::Matrix held_out;  ///< query_pool rows, then insert_pool rows
  const float* queries = nullptr;  ///< drawn in row order
  const float* inserts = nullptr;  ///< inserted in row order
  double dist_scale = 1.0;
};

Inputs MakeInputs(const Scale& scale, uint64_t seed) {
  eval::BenchScale bench;
  bench.n = scale.n;
  bench.num_queries = scale.query_pool + scale.insert_pool;
  Inputs in;
  in.data = eval::LoadAnalogue("msong", util::Metric::kEuclidean, bench);
  std::vector<size_t> order(bench.num_queries);
  std::iota(order.begin(), order.end(), size_t{0});
  util::Rng rng(seed ^ 0x51ED2701ULL);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  const size_t d = in.data.dim();
  in.held_out = util::Matrix(order.size(), d);
  for (size_t i = 0; i < order.size(); ++i) {
    std::copy_n(in.data.queries.Row(order[i]), d, in.held_out.Row(i));
  }
  in.data.queries = util::Matrix();
  in.queries = in.held_out.Row(0);
  in.inserts = in.held_out.Row(scale.query_pool);
  in.dist_scale = eval::EstimateDistanceScale(in.data);
  return in;
}

/// Reads every base row once so set-up timing sees resident pages.
double WarmRows(const dataset::Dataset& data) {
  double sum = 0.0;
  const float* p = data.data.data();
  const size_t total = data.n() * data.dim();
  for (size_t i = 0; i < total; i += 16) sum += p[i];
  return sum;
}

baselines::LccsLshIndex::Params LccsParams(double dist_scale) {
  baselines::LccsLshIndex::Params params;
  params.m = kM;
  params.lambda = kLambda;
  params.w = 4.0 * dist_scale;  // bench/serve_throughput's serving point
  return params;
}

core::DynamicIndex::Factory MakeFactory(const Workload& w, double dist_scale) {
  if (w.lccs) {
    const auto params = LccsParams(dist_scale);
    return [params] {
      return std::make_unique<baselines::LccsLshIndex>(params);
    };
  }
  return [] { return std::make_unique<baselines::LinearScan>(); };
}

// --- Request records ---------------------------------------------------------

struct QueryRecord {
  uint32_t pool_index = 0;
  bool measured = false;  ///< due/submitted inside the measured window
  bool failed = false;
  double latency_us = 0.0;
  double done_s = 0.0;  ///< completion, seconds after load start
  uint64_t batch_id = 0;
  uint64_t state_version = 0;
  uint32_t count = 0;
  std::array<int32_t, kK> ids{};
};

void FillQuery(const serve::QueryResponse& r, QueryRecord* rec) {
  rec->batch_id = r.batch_id;
  rec->state_version = r.state_version;
  rec->count = static_cast<uint32_t>(std::min(r.neighbors.size(), kK));
  for (size_t i = 0; i < rec->count; ++i) rec->ids[i] = r.neighbors[i].id;
}

/// One scheduled mutation; the schedule is a pure function of the seed, so
/// the global id every insert receives is known up front (ids are assigned
/// in admission order and one thread submits all mutations).
struct Mutation {
  bool insert = false;
  uint32_t insert_index = 0;  ///< insert: row of the insert pool
  int32_t id = -1;            ///< insert: expected id; remove: target
};

struct MutationRecord {
  bool measured = false;
  bool failed = false;
  double latency_us = 0.0;
  serve::MutationResponse response;
};

struct Event {
  double due_us = 0.0;  ///< offset from load start
  bool query = true;
  uint32_t index = 0;  ///< query: pool row; mutation: schedule position
};

struct LoadResult {
  std::vector<QueryRecord> queries;
  std::vector<Mutation> mutations;  ///< in submission (= log) order
  std::vector<MutationRecord> mutation_records;
  double measure_start_s = 0.0;
  double gen_late_max_us = 0.0;
  size_t dup_queries = 0;
  size_t queries_submitted = 0;
};

/// Builds the seeded open-loop schedule: arrivals evenly spaced at `rps`
/// (a fixed offered rate, so runs differ in inputs but not in burstiness),
/// each a mutation with probability `mutation_frac`. Mutations alternate in
/// expectation between inserts and removes; removes target a live base row
/// or a live earlier insert with equal odds, so both epoch tombstones and
/// delta tombstones accumulate.
std::vector<Event> MakeSchedule(const Workload& w, const Scale& scale,
                                uint64_t seed, double total_s,
                                LoadResult* out) {
  util::Rng rng(seed * 0x2545F4914F6CDD1DULL + 17);
  std::vector<Event> events;
  std::vector<int32_t> live_inserted;
  std::vector<uint8_t> base_taken(scale.n, 0);
  size_t next_query = 0;
  uint32_t next_insert = 0;
  const size_t total = static_cast<size_t>(total_s * w.offered_rps);
  for (size_t i = 0; i < total; ++i) {
    Event e;
    e.due_us = static_cast<double>(i) * 1e6 / w.offered_rps;
    e.query = !(rng.UniformDouble() < w.mutation_frac);
    if (e.query) {
      if (next_query >= scale.query_pool) ++out->dup_queries;
      e.index = static_cast<uint32_t>(next_query++ % scale.query_pool);
      ++out->queries_submitted;
    } else {
      Mutation m;
      const bool want_insert =
          rng.UniformDouble() < 0.5 && next_insert < scale.insert_pool;
      if (want_insert) {
        m.insert = true;
        m.insert_index = next_insert++;
        m.id = static_cast<int32_t>(scale.n + m.insert_index);
        live_inserted.push_back(m.id);
      } else if (!live_inserted.empty() && rng.UniformDouble() < 0.5) {
        const size_t pick = rng.NextBounded(live_inserted.size());
        m.id = live_inserted[pick];
        live_inserted[pick] = live_inserted.back();
        live_inserted.pop_back();
      } else {
        int32_t id;
        do {
          id = static_cast<int32_t>(rng.NextBounded(scale.n));
        } while (base_taken[static_cast<size_t>(id)] != 0);
        base_taken[static_cast<size_t>(id)] = 1;
        m.id = id;
      }
      e.index = static_cast<uint32_t>(out->mutations.size());
      out->mutations.push_back(m);
    }
    events.push_back(e);
  }
  return events;
}

/// Open loop: one sender sleeps until each due time (never polls) and hands
/// the future to a per-kind waiter; latency runs from the due time, so a
/// stalled sender shows up in every later request's latency.
LoadResult RunOpenLoop(serve::Server& server, const Workload& w,
                       const Scale& scale, const Inputs& in, uint64_t seed,
                       double warm_s, double seconds) {
  LoadResult result;
  const std::vector<Event> events =
      MakeSchedule(w, scale, seed, warm_s + seconds, &result);
  result.measure_start_s = warm_s;
  result.queries.resize(result.queries_submitted);
  result.mutation_records.resize(result.mutations.size());
  const size_t d = in.data.dim();

  struct PendingQuery {
    std::future<serve::QueryResponse> future;
    Clock::time_point due;
    size_t slot = 0;
  };
  struct PendingMutation {
    std::future<serve::MutationResponse> future;
    Clock::time_point due;
    size_t slot = 0;
  };
  Channel<PendingQuery> query_channel;
  Channel<PendingMutation> mutation_channel;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  std::thread query_waiter([&] {
    PendingQuery p;
    while (query_channel.Pop(&p)) {
      QueryRecord& rec = result.queries[p.slot];
      try {
        const serve::QueryResponse r = p.future.get();
        const Clock::time_point done = Clock::now();
        rec.latency_us = Micros(done - p.due);
        rec.done_s = Seconds(done - start);
        FillQuery(r, &rec);
      } catch (const std::exception&) {
        rec.failed = true;
      }
    }
  });
  std::thread mutation_waiter([&] {
    PendingMutation p;
    while (mutation_channel.Pop(&p)) {
      MutationRecord& rec = result.mutation_records[p.slot];
      try {
        rec.response = p.future.get();
        rec.latency_us = Micros(Clock::now() - p.due);
      } catch (const std::exception&) {
        rec.failed = true;
      }
    }
  });

  const ScopeExit join_waiters([&] {
    query_channel.Close();
    mutation_channel.Close();
    query_waiter.join();
    mutation_waiter.join();
  });
  size_t query_slot = 0;
  for (const Event& e : events) {
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(e.due_us * 1e3));
    std::this_thread::sleep_until(due);
    const bool measured = e.due_us >= warm_s * 1e6;
    if (measured) {
      result.gen_late_max_us =
          std::max(result.gen_late_max_us, Micros(Clock::now() - due));
    }
    if (e.query) {
      result.queries[query_slot].pool_index = e.index;
      result.queries[query_slot].measured = measured;
      query_channel.Push(
          {server.SubmitQuery(in.queries + size_t{e.index} * d, kK), due,
           query_slot});
      ++query_slot;
    } else {
      const Mutation& m = result.mutations[e.index];
      result.mutation_records[e.index].measured = measured;
      mutation_channel.Push(
          {m.insert ? server.SubmitInsert(in.inserts +
                                          size_t{m.insert_index} * d)
                    : server.SubmitRemove(m.id),
           due, e.index});
    }
  }
  return result;
}

/// Closed loop: kClosedThreads threads each keep kClosedDepth queries in
/// flight, resubmitting as the oldest completes, drawing the pool in order
/// so repeats only occur once it is exhausted.
LoadResult RunClosedLoop(serve::Server& server, const Scale& scale,
                         const Inputs& in, double warm_s, double seconds) {
  LoadResult result;
  result.measure_start_s = warm_s;
  const size_t d = in.data.dim();
  std::atomic<size_t> next_query{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::microseconds(
                  static_cast<int64_t>((warm_s + seconds) * 1e6));
  std::vector<std::vector<QueryRecord>> per_thread(kClosedThreads);
  std::vector<std::thread> threads;
  {  // the threads are joined when this scope ends
    const ScopeExit join_threads([&] {
      for (auto& thread : threads) thread.join();
    });
    for (size_t t = 0; t < kClosedThreads; ++t) {
      threads.emplace_back([&, t] {
        struct InFlight {
          std::future<serve::QueryResponse> future;
          Clock::time_point submitted;
          QueryRecord rec;
        };
        std::deque<InFlight> flight;
        auto submit = [&] {
          const size_t draw = next_query.fetch_add(1);
          InFlight f;
          f.rec.pool_index = static_cast<uint32_t>(draw % scale.query_pool);
          f.submitted = Clock::now();
          f.rec.measured = Seconds(f.submitted - start) >= warm_s;
          f.future = server.SubmitQuery(
              in.queries + size_t{f.rec.pool_index} * d, kK);
          flight.push_back(std::move(f));
        };
        for (size_t i = 0; i < kClosedDepth; ++i) submit();
        while (!flight.empty()) {
          InFlight f = std::move(flight.front());
          flight.pop_front();
          try {
            const serve::QueryResponse r = f.future.get();
            const Clock::time_point done = Clock::now();
            f.rec.latency_us = Micros(done - f.submitted);
            f.rec.done_s = Seconds(done - start);
            FillQuery(r, &f.rec);
          } catch (const std::exception&) {
            f.rec.failed = true;
          }
          per_thread[t].push_back(f.rec);
          if (Clock::now() < stop) submit();
        }
      });
    }
  }
  for (auto& records : per_thread) {
    result.queries.insert(result.queries.end(), records.begin(),
                          records.end());
  }
  result.queries_submitted = next_query.load();
  result.dup_queries = result.queries_submitted > scale.query_pool
                           ? result.queries_submitted - scale.query_pool
                           : 0;
  return result;
}

// --- Answer checks ----------------------------------------------------------

/// Birth and death versions of every id the run can create, rebuilt from the
/// acked mutation log: id x is live at version v iff born[x] <= v < dead[x].
struct Liveness {
  std::vector<uint64_t> born;
  std::vector<uint64_t> dead;
  bool Live(int32_t id, uint64_t v) const {
    return id >= 0 && static_cast<size_t>(id) < born.size() &&
           born[static_cast<size_t>(id)] <= v &&
           v < dead[static_cast<size_t>(id)];
  }
};

struct CheckReport {
  std::vector<std::string> failures;
  double recall = 0.0;
  size_t recall_samples = 0;
  void Fail(const std::string& what) {
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Acks must reproduce the schedule: dense versions in submission order,
/// the predicted insert ids, and every remove applied. Fills the liveness
/// table from the acks.
void CheckMutations(const std::vector<Mutation>& mutations,
                    const std::vector<MutationRecord>& records,
                    Liveness* live, CheckReport* report) {
  for (size_t i = 0; i < mutations.size(); ++i) {
    const Mutation& m = mutations[i];
    const MutationRecord& rec = records[i];
    if (rec.failed) continue;  // counted as a failed request
    const uint64_t version = i + 1;
    if (rec.response.state_version != version || rec.response.id != m.id ||
        !rec.response.applied) {
      report->Fail("mutation " + std::to_string(version) +
                   " acked version " +
                   std::to_string(rec.response.state_version) + " id " +
                   std::to_string(rec.response.id) + " applied " +
                   std::to_string(rec.response.applied));
      continue;
    }
    const auto id = static_cast<size_t>(m.id);
    if (id >= live->born.size()) continue;
    (m.insert ? live->born : live->dead)[id] = version;
  }
}

/// Exact top-k over the rows live at `version` (base rows plus inserts).
std::vector<int32_t> ExactTopK(const Inputs& in, const Scale& scale,
                               const Liveness& live, const float* query,
                               uint64_t version, std::vector<double>* dist) {
  const size_t n = scale.n;
  const size_t d = in.data.dim();
  dist->resize(n + scale.insert_pool);
  util::DistanceMany(in.data.metric, in.data.data.data(), d, query, nullptr,
                     n, dist->data());
  size_t born_inserts = 0;
  while (born_inserts < scale.insert_pool &&
         live.born[n + born_inserts] <= version) {
    ++born_inserts;
  }
  util::DistanceMany(in.data.metric, in.inserts, d, query, nullptr,
                     born_inserts, dist->data() + n);
  util::TopK topk(kK);
  for (size_t id = 0; id < n + born_inserts; ++id) {
    if (live.Live(static_cast<int32_t>(id), version)) {
      topk.Push(static_cast<int32_t>(id), (*dist)[id]);
    }
  }
  std::vector<int32_t> ids;
  for (const auto& nb : topk.Sorted()) ids.push_back(nb.id);
  return ids;
}

void CheckQueries(const LoadResult& load, const Inputs& in,
                  const Scale& scale, const Liveness& live,
                  const Workload& w, CheckReport* report) {
  // Every returned id was born and not yet removed at the response's
  // state_version, and every response has k neighbors.
  std::map<uint64_t, uint64_t> batch_versions;
  for (const QueryRecord& q : load.queries) {
    if (q.failed) continue;
    if (q.count != kK) {
      report->Fail("query returned " + std::to_string(q.count) +
                   " neighbors");
    }
    for (size_t i = 0; i < q.count; ++i) {
      if (!live.Live(q.ids[i], q.state_version)) {
        report->Fail("id " + std::to_string(q.ids[i]) +
                     " not live at version " +
                     std::to_string(q.state_version));
      }
    }
    const auto [it, inserted] =
        batch_versions.emplace(q.batch_id, q.state_version);
    if (!inserted && it->second != q.state_version) {
      report->Fail("batch " + std::to_string(q.batch_id) +
                   " answered at two versions");
    }
  }
  // state_version is monotone in batch_id.
  uint64_t prev = 0;
  for (const auto& [batch, version] : batch_versions) {
    if (version < prev) {
      report->Fail("batch " + std::to_string(batch) + " version " +
                   std::to_string(version) + " after " +
                   std::to_string(prev));
    }
    prev = version;
  }
  // Served recall@10 on an even sample of measured responses, against the
  // exact top-10 over the live set at each response's version.
  std::vector<size_t> sample;
  for (size_t i = 0; i < load.queries.size(); ++i) {
    if (load.queries[i].measured && !load.queries[i].failed) {
      sample.push_back(i);
    }
  }
  if (sample.size() > scale.recall_samples) {
    std::vector<size_t> thinned;
    for (size_t j = 0; j < scale.recall_samples; ++j) {
      thinned.push_back(sample[j * sample.size() / scale.recall_samples]);
    }
    sample.swap(thinned);
  }
  std::vector<double> hits(sample.size(), 0.0);
  const size_t d = in.data.dim();
  util::ParallelFor(sample.size(), [&](size_t begin, size_t end) {
    std::vector<double> dist;
    for (size_t s = begin; s < end; ++s) {
      const QueryRecord& q = load.queries[sample[s]];
      const std::vector<int32_t> exact =
          ExactTopK(in, scale, live, in.queries + size_t{q.pool_index} * d,
                    q.state_version, &dist);
      for (size_t i = 0; i < q.count; ++i) {
        if (std::find(exact.begin(), exact.end(), q.ids[i]) != exact.end()) {
          hits[s] += 1.0;
        }
      }
      hits[s] /= static_cast<double>(std::max<size_t>(exact.size(), 1));
    }
  });
  report->recall = Mean(hits);
  report->recall_samples = sample.size();
  if (sample.empty()) {
    report->Fail("no measured query completed");
  } else if (report->recall < w.recall_floor) {
    report->Fail("recall@10 " + std::to_string(report->recall) +
                 " below floor " + std::to_string(w.recall_floor));
  }
}

// --- Standalone per-shard layer probes (--trace 1) ---------------------------

/// Per-query means of the per-shard stages (a bypassed stage reads 0).
struct ShardLayers {
  double hash_us = 0.0, csa_us = 0.0, verify_us = 0.0;       // LCCS-LSH
  double prepare_us = 0.0, score_us = 0.0, rerank_us = 0.0;  // int8 scan
  double candidates = 0.0, verify_bytes = 0.0, rerank_rows = 0.0;
  double query_us = 0.0, residual_us = 0.0, query_batch_us = 0.0;
  double unique_frac = 0.0, rebuild_s = 0.0;
};

/// Times the per-shard layers on an index identical to shard 0's epoch:
/// same params and seed, built over the same row slice. The shards inside
/// ShardedIndex are not reachable from outside, so this twin stands in.
ShardLayers ProbeShardLayers(const Workload& w, const Scale& scale,
                             const Inputs& in) {
  const size_t rows = scale.n / scale.num_shards;
  const size_t d = in.data.dim();
  const util::Metric metric = in.data.metric;
  auto slice = std::make_shared<storage::SliceStore>(in.data.data.store(), 0,
                                                     rows);
  dataset::Dataset shard;
  shard.name = "shard0";
  shard.metric = metric;
  shard.data = slice;
  const size_t probes = std::min(scale.stage_queries, scale.query_pool);
  const float* q0 = in.queries;
  std::vector<double> query_us, hash_us, csa_us, verify_us, candidates;
  std::vector<double> prepare_us, score_us, rerank_us;
  double rebuild_s = 0.0, query_batch_us = 0.0, unique_frac = 0.0;
  double rerank_rows = 0.0;

  // Whole queries are timed next to the stages of the same query, first on
  // even queries and last on odd ones, so neither side systematically gets
  // the other's warm caches and drifts in machine speed hit both alike.
  auto time_query = [&](const baselines::AnnIndex& index, const float* q) {
    const auto t0 = Clock::now();
    const auto res = index.Query(q, kK);
    query_us.push_back(Micros(Clock::now() - t0));
  };
  auto time_batches = [&](const baselines::AnnIndex& index) {
    const size_t windows = std::max<size_t>(1, probes / kMaxBatch);
    const size_t batch = std::min(probes, kMaxBatch);
    std::vector<double> per_query;
    for (size_t b = 0; b < windows; ++b) {
      const auto t0 = Clock::now();
      const auto res = index.QueryBatch(q0 + b * batch * d, batch, kK, 1);
      per_query.push_back(Micros(Clock::now() - t0) /
                          static_cast<double>(batch));
    }
    return Mean(per_query);
  };

  if (w.lccs) {
    baselines::LccsLshIndex index(LccsParams(in.dist_scale));
    auto t0 = Clock::now();
    index.Build(shard);
    rebuild_s = Seconds(Clock::now() - t0);
    const core::MpLccsLsh& scheme = index.scheme();
    std::vector<lsh::HashValue> hash(scheme.m());
    std::unordered_set<int32_t> window_rows;
    size_t window_total = 0;
    for (size_t i = 0; i < probes; ++i) {
      const float* q = q0 + i * d;
      if (i % 2 == 0) time_query(index, q);
      const auto t_hash = Clock::now();
      scheme.family().Hash(q, hash.data());
      const auto t_csa = Clock::now();
      const auto cands = scheme.csa().Search(hash.data(), kLambda + kK - 1);
      const auto t_verify = Clock::now();
      std::vector<int32_t> ids(cands.size());
      for (size_t c = 0; c < cands.size(); ++c) ids[c] = cands[c].id;
      util::TopK topk(kK);
      util::VerifyCandidates(metric, slice->data(), d, q, ids.data(),
                             ids.size(), topk);
      const auto t_end = Clock::now();
      hash_us.push_back(Micros(t_csa - t_hash));
      csa_us.push_back(Micros(t_verify - t_csa));
      verify_us.push_back(Micros(t_end - t_verify));
      candidates.push_back(static_cast<double>(ids.size()));
      if (i % 2 == 1) time_query(index, q);
      if (i < kMaxBatch) {
        window_rows.insert(ids.begin(), ids.end());
        window_total += ids.size();
      }
    }
    query_batch_us = time_batches(index);
    unique_frac = Ratio(static_cast<double>(window_rows.size()),
                        static_cast<double>(window_total));
  } else {
    baselines::LinearScan index;
    auto t0 = Clock::now();
    storage::EnsureQuantized(slice, metric);
    index.Build(shard);
    rebuild_s = Seconds(Clock::now() - t0);
    size_t offset = 0;
    const storage::QuantizedStore* qs =
        storage::ActiveQuantized(slice.get(), metric, &offset);
    if (qs == nullptr) throw std::runtime_error("quantized tier missing");
    const size_t keep = storage::RerankKeep(kK);
    std::vector<float> scores(rows);
    for (size_t i = 0; i < probes; ++i) {
      const float* q = q0 + i * d;
      if (i % 2 == 0) time_query(index, q);
      const auto t_prep = Clock::now();
      const auto prepared = qs->Prepare(q);
      const auto t_score = Clock::now();
      qs->ScoreCandidates(prepared, nullptr, rows, offset, scores.data());
      storage::RerankSelector selector(keep);
      for (size_t r = 0; r < rows; ++r) {
        selector.Offer(scores[r], static_cast<int32_t>(r));
      }
      const std::vector<int32_t> pruned = selector.TakeAscendingIds();
      const auto t_rerank = Clock::now();
      util::TopK topk(kK);
      storage::ExactRerank(*slice, metric, q, pruned.data(), pruned.size(),
                           topk);
      const auto t_end = Clock::now();
      prepare_us.push_back(Micros(t_score - t_prep));
      score_us.push_back(Micros(t_rerank - t_score));
      rerank_us.push_back(Micros(t_end - t_rerank));
      candidates.push_back(static_cast<double>(rows));
      rerank_rows = static_cast<double>(pruned.size());
      if (i % 2 == 1) time_query(index, q);
    }
    query_batch_us = time_batches(index);
  }
  ShardLayers out;
  out.hash_us = Mean(hash_us);
  out.csa_us = Mean(csa_us);
  out.verify_us = Mean(verify_us);
  out.prepare_us = Mean(prepare_us);
  out.score_us = Mean(score_us);
  out.rerank_us = Mean(rerank_us);
  out.candidates = Mean(candidates);
  out.verify_bytes =
      w.lccs ? out.candidates * static_cast<double>(d * sizeof(float)) : 0.0;
  out.rerank_rows = rerank_rows;
  out.query_us = Mean(query_us);
  out.residual_us = out.query_us - out.hash_us - out.csa_us - out.verify_us -
                    out.prepare_us - out.score_us - out.rerank_us;
  out.query_batch_us = query_batch_us;
  out.unique_frac = unique_frac;
  out.rebuild_s = rebuild_s;
  return out;
}

struct WalProbe {
  double append_us = 0.0;  ///< mean Append
  double fsync_us = 0.0;   ///< median Sync
};

/// Times the WAL's Append and Sync directly on the run's log after the
/// server stopped, in groups as large as the served run's fsyncs covered.
WalProbe ProbeWal(serve::WriteAheadLog* wal, const Inputs& in, size_t group) {
  std::vector<double> append_us, fsync_us;
  serve::WriteAheadLog::Record record;
  record.is_insert = true;
  record.vec.assign(in.inserts, in.inserts + in.data.dim());
  uint64_t version = wal->last_version();
  group = std::max<size_t>(1, group);
  for (size_t g = 0; g < 32; ++g) {
    for (size_t i = 0; i < group; ++i) {
      record.version = ++version;
      record.id = static_cast<int32_t>(version);
      const auto t0 = Clock::now();
      wal->Append(record);
      append_us.push_back(Micros(Clock::now() - t0));
    }
    const auto t0 = Clock::now();
    wal->Sync();
    fsync_us.push_back(Micros(Clock::now() - t0));
  }
  return {Mean(append_us), Median(fsync_us)};
}

// --- The run ----------------------------------------------------------------

struct ShardSample {
  double delta_rows = 0.0;
  double tombstones = 0.0;
};

ShardSample SumShards(const serve::ShardedIndex& index) {
  ShardSample s;
  for (const auto& st : index.ShardStats()) {
    s.delta_rows += static_cast<double>(st.delta_rows);
    s.tombstones += static_cast<double>(st.tombstones);
  }
  return s;
}

std::vector<uint64_t> EpochSequences(const serve::ShardedIndex& index) {
  std::vector<uint64_t> seq;
  for (const auto& st : index.ShardStats()) seq.push_back(st.epoch_sequence);
  return seq;
}

int Run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) Usage("unknown workload " + args.workload);
  const Workload& w = *found;
  const Scale scale = args.smoke ? SmokeScale() : Scale();
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path work_dir =
      fs::path(args.work_dir) / ("run_" + std::to_string(::getpid()));
  fs::create_directories(work_dir);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{work_dir};
  const std::string wal_dir = (work_dir / "wal").string();
  const size_t rebuild_threshold =
      w.wal ? scale.write_rebuild_threshold : size_t{1024};

  {
    JsonObject context;
    context.Str("workload", w.name);
    context.Num("seed", static_cast<double>(args.seed));
    context.Num("run_seconds", args.seconds);
    context.Num("num_cpus", static_cast<double>(std::max(
                                1u, std::thread::hardware_concurrency())));
    const size_t workers = util::ThreadPool::Instance().num_workers();
    context.Num("pool_workers", static_cast<double>(workers));
    context.Str("build_type", PERFBENCH_BUILD_TYPE);
    context.Str("simd_tier", util::SimdTierName(util::ActiveSimdTier()));
    context.Str("wal_fs", FilesystemName(work_dir.string()));
    context.Str("fsync_policy", w.wal ? "group_commit" : "none");
    context.Str("index", w.lccs ? "LCCS-LSH" : "LinearScan+int8");
    context.Num("n", static_cast<double>(scale.n));
    context.Num("shards", static_cast<double>(scale.num_shards));
    context.Num("m", static_cast<double>(kM));
    context.Num("lambda", static_cast<double>(kLambda));
    context.Num("k", static_cast<double>(kK));
    context.Num("max_batch", static_cast<double>(kMaxBatch));
    context.Num("max_delay_us", static_cast<double>(kMaxDelayUs));
    context.Str("loop", w.open_loop ? "open" : "closed");
    context.Num("offered_rps", w.offered_rps);
    context.Num("mutation_frac", w.mutation_frac);
    context.Num("rebuild_threshold", static_cast<double>(rebuild_threshold));
    context.Num("smoke", args.smoke ? 1.0 : 0.0);
    std::printf("{\"context\": %s}\n", context.Dump().c_str());
    std::fflush(stdout);
  }

  const auto t_inputs = Clock::now();
  const Inputs in = MakeInputs(scale, args.seed);
  const double inputs_s = Seconds(Clock::now() - t_inputs);
  const double warm_checksum = WarmRows(in.data);

  // Set-up: ShardedIndex::Build (plus WAL Recover), repeated; the median
  // is setup_s and the last repetition serves.
  const core::DynamicIndex::Factory factory = MakeFactory(w, in.dist_scale);
  serve::ShardedIndex::Options index_options;
  index_options.num_shards = scale.num_shards;
  index_options.rebuild_threshold = rebuild_threshold;
  index_options.quantize = !w.lccs;
  std::unique_ptr<serve::ShardedIndex> index;
  std::unique_ptr<serve::WriteAheadLog> wal;
  std::vector<double> setup_s;
  const size_t reps = args.trace ? 1 : scale.setup_reps;
  for (size_t rep = 0; rep < reps; ++rep) {
    wal.reset();
    index.reset();
    fs::remove_all(wal_dir);
    const auto t0 = Clock::now();
    index = std::make_unique<serve::ShardedIndex>(factory, index_options);
    index->Build(in.data);
    if (w.wal) {
      serve::WriteAheadLog::Options wal_options;
      wal_options.fsync_policy =
          serve::WriteAheadLog::FsyncPolicy::kGroupCommit;
      wal = std::make_unique<serve::WriteAheadLog>(wal_dir, wal_options);
      wal->Recover(index.get());
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
  }

  serve::Server::Options server_options;
  server_options.max_batch = kMaxBatch;
  server_options.max_delay_us = kMaxDelayUs;
  server_options.num_threads = 0;  // nproc
  server_options.wal = wal.get();
  serve::Server server(index.get(), server_options);

  // Traced runs sample the snapshot-acquire cost and the shards' delta and
  // tombstone backlog while the load runs.
  std::atomic<bool> probing{args.trace};
  std::vector<double> acquire_us;
  std::vector<ShardSample> shard_samples;
  std::thread prober;
  const ScopeExit stop_prober([&] {
    probing.store(false);
    if (prober.joinable()) prober.join();
  });
  if (args.trace) {
    prober = std::thread([&] {
      size_t tick = 0;
      while (probing.load()) {
        const auto t0 = Clock::now();
        { const serve::ShardedSnapshot snap = index->AcquireSnapshot(); }
        acquire_us.push_back(Micros(Clock::now() - t0));
        if (++tick % 10 == 0) shard_samples.push_back(SumShards(*index));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  const double warm_s = std::min(2.0, args.seconds / 5.0);
  std::array<double, 2> steal_mark{};
  StealFrac(&steal_mark);
  const serve::Server::Stats before = server.stats();
  const std::vector<uint64_t> epochs_before = EpochSequences(*index);
  LoadResult load =
      w.open_loop
          ? RunOpenLoop(server, w, scale, in, args.seed, warm_s, args.seconds)
          : RunClosedLoop(server, scale, in, warm_s, args.seconds);
  const serve::Server::Stats after = server.stats();
  const double steal_frac = StealFrac(&steal_mark);
  const std::vector<uint64_t> epochs_after = EpochSequences(*index);
  probing.store(false);
  if (prober.joinable()) prober.join();  // its samples are read below

  const auto t_checks = Clock::now();
  CheckReport report;
  Liveness live;
  live.born.assign(scale.n + scale.insert_pool,
                   std::numeric_limits<uint64_t>::max());
  live.dead.assign(scale.n + scale.insert_pool,
                   std::numeric_limits<uint64_t>::max());
  std::fill(live.born.begin(), live.born.begin() + scale.n, 0);
  CheckMutations(load.mutations, load.mutation_records, &live, &report);
  CheckQueries(load, in, scale, live, w, &report);
  size_t min_consolidations = std::numeric_limits<size_t>::max();
  double consolidations = 0.0;
  for (size_t s = 0; s < epochs_after.size(); ++s) {
    const size_t c = epochs_after[s] - epochs_before[s];
    min_consolidations = std::min(min_consolidations, c);
    consolidations += static_cast<double>(c);
  }
  if (w.wal && min_consolidations < 2) {
    report.Fail("a shard consolidated only " +
                std::to_string(min_consolidations) + " times");
  }

  const double checks_s = Seconds(Clock::now() - t_checks);

  server.Stop();

  // Tallies. The rate and the tail percentiles pool the whole measured
  // window; the median is a median over its 1-s slices. (A closed-loop
  // slice completes whole 64-query windows, so slice rates would move in
  // steps of several percent.)
  std::vector<double> query_lat, mut_lat;
  std::vector<Sample> query_done;
  size_t attempted = 0, failed = 0;
  for (const QueryRecord& q : load.queries) {
    ++attempted;
    if (q.failed) {
      ++failed;
      continue;
    }
    if (q.measured) query_lat.push_back(q.latency_us);
    query_done.push_back({q.done_s, q.latency_us});
  }
  for (const MutationRecord& m : load.mutation_records) {
    ++attempted;
    if (m.failed) {
      ++failed;
    } else if (m.measured) {
      mut_lat.push_back(m.latency_us);
    }
  }
  const auto query_slices =
      Slices(query_done, load.measure_start_s, args.seconds);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double served = static_cast<double>(after.queries_served -
                                            before.queries_served);
  const double query_p50 = SliceMedianLatency(query_slices);
  size_t completed = 0;
  for (const auto& slice : query_slices) completed += slice.size();

  JsonObject metrics;
  JsonObject detail;
  auto metric = [&](JsonObject* obj, const std::string& name, double value,
                    const char* unit) {
    JsonObject m;
    m.Num("value", value);
    m.Str("unit", unit);
    obj->Raw(name, m.Dump());
  };
  // Tail and mutation latencies swing by more than any regression bound
  // could absorb between runs on a shared virtual machine (hypervisor steal
  // reaches 25-30%), and read-only workloads have no mutations at all: the
  // untraced run prints them in its detail line and the traced run reports
  // them as per-layer figures, but they are not gated.
  const double query_p99 = Percentile(query_lat, 0.99);
  const double mut_p50 = Percentile(mut_lat, 0.5);
  const double mut_p99 = Percentile(mut_lat, 0.99);
  JsonObject ungated;
  metric(&ungated, "query_p99_us", query_p99, "us");
  metric(&ungated, "mut_p50_us", mut_p50, "us");
  metric(&ungated, "mut_p99_us", mut_p99, "us");
  if (!args.trace) {
    metric(&metrics, "query_p50_us", query_p50, "us");
    metric(&metrics, "query_qps", static_cast<double>(completed) / args.seconds,
           "1/s");
    metric(&metrics, "recall_at_10", report.recall, "ratio");
    metric(&metrics, "ok_frac",
           1.0 - Ratio(static_cast<double>(failed),
                       static_cast<double>(attempted)),
           "ratio");
    metric(&metrics, "setup_s", Median(setup_s), "s");
    metric(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
  } else {
    // Served-path layers, measured on the run's own index after the load,
    // once no consolidation competes for the cores.
    index->WaitForRebuilds();
    const double window = Ratio(served, batches);
    const auto snapshot = index->AcquireSnapshot();
    const size_t d = in.data.dim();
    auto time_window = [&](size_t batch, size_t count) {
      std::vector<double> us;
      for (size_t r = 0; r < count; ++r) {
        const float* q = in.queries + (r * batch % scale.query_pool) * d;
        const auto t0 = Clock::now();
        const auto res = snapshot.QueryBatch(q, batch, kK);
        us.push_back(Micros(Clock::now() - t0));
      }
      return us;
    };
    const double b1 = Mean(time_window(1, 64));
    const double b64 = Mean(time_window(kMaxBatch, 4)) / kMaxBatch;
    const size_t mean_window = std::max<size_t>(
        1, std::min(kMaxBatch, static_cast<size_t>(std::lround(window))));
    const double window_exec = Median(time_window(mean_window, 16));
    const ShardLayers shard = ProbeShardLayers(w, scale, in);
    // Index-level apply cost, straight on the stopped server's index.
    std::vector<double> ins_us, rem_us;
    for (size_t i = 0; i < 128; ++i) {
      const auto t0 = Clock::now();
      const auto r = index->ApplyInsert(in.inserts + i * d);
      ins_us.push_back(Micros(Clock::now() - t0));
      const auto t1 = Clock::now();
      index->ApplyRemove(r.id);
      rem_us.push_back(Micros(Clock::now() - t1));
    }
    const double wal_records =
        static_cast<double>(after.wal_records - before.wal_records);
    const double wal_fsyncs =
        static_cast<double>(after.wal_fsyncs - before.wal_fsyncs);
    const WalProbe wal_probe =
        wal != nullptr
            ? ProbeWal(wal.get(), in,
                       static_cast<size_t>(
                           std::lround(Ratio(wal_records, wal_fsyncs))))
            : WalProbe{};
    double delta_rows = 0.0, tombstones = 0.0;
    for (const ShardSample& s : shard_samples) {
      delta_rows += s.delta_rows / static_cast<double>(shard_samples.size());
      tombstones += s.tombstones / static_cast<double>(shard_samples.size());
    }
    metric(&metrics, "serve.window_size", window, "count");
    metric(&metrics, "serve.close_deadline_frac",
           Ratio(static_cast<double>(after.windows_closed_deadline -
                                     before.windows_closed_deadline),
                 batches),
           "ratio");
    metric(&metrics, "serve.wait_us", query_p50 - window_exec, "us");
    metric(&metrics, "serve.acquire_us", Mean(acquire_us), "us");
    metric(&metrics, "serve.shard_query_b1_us", b1, "us");
    metric(&metrics, "serve.shard_query_b64_us", b64, "us");
    metric(&metrics, "serve.fanout_eff",
           Ratio(static_cast<double>(scale.num_shards) * shard.query_us,
                 static_cast<double>(
                     util::ThreadPool::Instance().num_workers()) * b1),
           "ratio");
    metric(&metrics, "serve.apply_insert_us", Mean(ins_us), "us");
    metric(&metrics, "serve.apply_remove_us", Mean(rem_us), "us");
    metric(&metrics, "wal.append_us", wal_probe.append_us, "us");
    metric(&metrics, "wal.fsync_us", wal_probe.fsync_us, "us");
    metric(&metrics, "wal.records_per_fsync", Ratio(wal_records, wal_fsyncs),
           "count");
    metric(&metrics, "wal.bytes_per_mutation",
           Ratio(static_cast<double>(after.wal_bytes - before.wal_bytes),
                 wal_records),
           "bytes");
    metric(&metrics, "lsh.hash_us", shard.hash_us, "us");
    metric(&metrics, "core.csa_search_us", shard.csa_us, "us");
    metric(&metrics, "core.candidates", shard.candidates, "count");
    metric(&metrics, "util.verify_us", shard.verify_us, "us");
    metric(&metrics, "util.verify_bytes", shard.verify_bytes, "bytes");
    metric(&metrics, "core.query_us", shard.query_us, "us");
    metric(&metrics, "core.residual_us", shard.residual_us, "us");
    metric(&metrics, "core.query_batch_us", shard.query_batch_us, "us");
    metric(&metrics, "core.batch_unique_frac", shard.unique_frac, "ratio");
    metric(&metrics, "core.delta_rows", delta_rows, "count");
    metric(&metrics, "core.tombstones", tombstones, "count");
    metric(&metrics, "core.consolidations", consolidations, "count");
    metric(&metrics, "core.rebuild_s", shard.rebuild_s, "s");
    metric(&metrics, "storage.prepare_us", shard.prepare_us, "us");
    metric(&metrics, "storage.score_us", shard.score_us, "us");
    metric(&metrics, "storage.rerank_rows", shard.rerank_rows, "count");
    metric(&metrics, "storage.rerank_us", shard.rerank_us, "us");
    metric(&metrics, "bench.query_p99_us", query_p99, "us");
    metric(&metrics, "bench.mut_p50_us", mut_p50, "us");
    metric(&metrics, "bench.mut_p99_us", mut_p99, "us");
    metric(&metrics, "bench.gen_late_max_us", load.gen_late_max_us, "us");
    metric(&metrics, "bench.dup_query_frac",
           Ratio(static_cast<double>(load.dup_queries),
                 static_cast<double>(load.queries_submitted)),
           "ratio");
    if (std::fabs(shard.residual_us) >
        std::max(kResidualTolerance * shard.query_us, kResidualFloorUs)) {
      report.Fail("core.residual_us " + std::to_string(shard.residual_us) +
                  " exceeds " + std::to_string(kResidualTolerance) +
                  " of core.query_us " + std::to_string(shard.query_us));
    }
  }

  detail.Num("cpu_steal_frac", steal_frac);
  detail.Num("inputs_s", inputs_s);
  detail.Num("checks_s", checks_s);
  {
    std::string list = "[";
    for (size_t i = 0; i < query_slices.size(); ++i) {
      list += (i ? ", " : "") + std::to_string(query_slices[i].size());
    }
    detail.Raw("queries_per_slice", list + "]");
    list = "[";
    for (size_t i = 0; i < query_slices.size(); ++i) {
      list += (i ? ", " : "") +
              std::to_string(std::lround(Percentile(query_slices[i], 0.5)));
    }
    detail.Raw("p50_us_per_slice", list + "]");
  }
  detail.Raw("ungated", ungated.Dump());
  detail.Num("recall_samples", static_cast<double>(report.recall_samples));
  detail.Num("query_samples", static_cast<double>(query_lat.size()));
  detail.Num("mutation_samples", static_cast<double>(mut_lat.size()));
  detail.Num("mean_window", Ratio(served, batches));
  detail.Num("consolidations", consolidations);
  detail.Num("min_shard_consolidations",
             static_cast<double>(min_consolidations));
  detail.Num("gen_late_max_us", load.gen_late_max_us);
  detail.Num("dup_queries", static_cast<double>(load.dup_queries));
  detail.Num("warm_checksum", warm_checksum);
  std::string failures = "[";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    failures += (i ? ", \"" : "\"") + report.failures[i] + "\"";
  }
  detail.Raw("check_failures", failures + "]");
  std::printf("{\"detail\": %s}\n", detail.Dump().c_str());

  const bool correct = report.failures.empty();
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", attempted, failed, metrics.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace lccs

int main(int argc, char** argv) {
  const lccs::perfbench::Args args = lccs::perfbench::ParseArgs(argc, argv);
  try {
    return lccs::perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
