// Randomized oracle-equivalence property harness for core::DynamicIndex.
//
// Every sequence applies interleaved insert / delete / query / consolidate
// operations to a DynamicIndex and, at each query, demands the result be
// *identical* — same ids, bit-identical distances — to a from-scratch
// oracle index of the same configuration built over the surviving points.
//
// The index configurations run in exhaustive-verification mode (λ larger
// than any point count, so LCCS-LSH and MP-LCCS-LSH verify every candidate
// the CSA can surface and return the exact k-NN, like LinearScan). That
// makes the oracle comparison exact regardless of how points are split
// between the static epoch and the delta buffer — so the property isolates
// precisely the mutation bookkeeping this PR adds (tombstones, delta merge,
// global-id remapping across epoch rebuilds), and a background rebuild
// landing mid-sequence can never excuse a mismatch.
//
// On failure the harness shrinks the sequence (greedy op removal while the
// failure reproduces) and reports the minimal op list.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "core/dynamic_index.h"
#include "core/serialize.h"
#include "dataset/synthetic.h"
#include "eval/runner.h"
#include "eval/workloads.h"
#include "util/random.h"
#include "util/simd_distance.h"

namespace lccs {
namespace core {
namespace {

constexpr size_t kDim = 12;

struct Op {
  enum Kind : uint8_t { kInsert, kRemove, kQuery, kConsolidate };
  Kind kind = kInsert;
  // Payloads are assigned once, at sequence generation, and survive
  // shrinking untouched: an insert's vector and a query's vector depend
  // only on the payload, so removing ops never changes the remaining ones.
  uint64_t payload = 0;
};

std::vector<float> VectorFromPayload(uint64_t payload) {
  util::Rng rng(payload * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<float> v(kDim);
  rng.FillGaussian(v.data(), v.size());
  return v;
}

const char* KindName(Op::Kind kind) {
  switch (kind) {
    case Op::kInsert: return "I";
    case Op::kRemove: return "D";
    case Op::kQuery: return "Q";
    case Op::kConsolidate: return "C";
  }
  return "?";
}

std::string Describe(const std::vector<Op>& ops) {
  std::ostringstream out;
  for (const Op& op : ops) {
    out << KindName(op.kind) << "(" << op.payload << ") ";
  }
  return out.str();
}

/// One index configuration under test plus its oracle twin.
struct IndexConfig {
  std::string name;
  std::function<std::unique_ptr<baselines::AnnIndex>()> make;
};

std::vector<IndexConfig> ConfigsUnderTest() {
  // λ far above any point count in these sequences (≤ ~100) → every point
  // is verified and the result is the exact k-NN. Not overly large: the
  // multi-probe candidate loop reserves hash space proportional to λ.
  baselines::LccsLshIndex::Params lccs;
  lccs.m = 16;
  lccs.lambda = 4096;
  lccs.w = 4.0;
  baselines::LccsLshIndex::Params mp = lccs;
  mp.num_probes = 8;
  return {
      {"LinearScan",
       [] { return std::make_unique<baselines::LinearScan>(); }},
      {"LCCS-LSH",
       [lccs] { return std::make_unique<baselines::LccsLshIndex>(lccs); }},
      {"MP-LCCS-LSH",
       [mp] { return std::make_unique<baselines::LccsLshIndex>(mp); }},
  };
}

struct SequenceParams {
  uint64_t seed = 0;
  size_t initial_points = 0;  ///< 0 = start from an empty, never-Built index
  size_t num_ops = 32;
  size_t rebuild_threshold = 8;
  bool background_rebuild = false;
};

/// The reference model: surviving (id, vector) pairs in ascending id order.
struct Model {
  std::vector<std::pair<int32_t, std::vector<float>>> live;
  int32_t next_id = 0;

  void Insert(int32_t id, std::vector<float> vec) {
    live.emplace_back(id, std::move(vec));
  }
  void Remove(size_t index) { live.erase(live.begin() + index); }
};

/// Replays `ops` against a fresh DynamicIndex and the model; returns a
/// failure description, or nullopt when every check passed.
std::optional<std::string> Replay(const IndexConfig& config,
                                  const SequenceParams& params,
                                  const std::vector<Op>& ops) {
  DynamicIndex::Options options;
  options.metric = util::Metric::kEuclidean;
  options.dim = kDim;
  options.rebuild_threshold = params.rebuild_threshold;
  options.background_rebuild = params.background_rebuild;
  DynamicIndex index(config.make, options);

  Model model;
  if (params.initial_points > 0) {
    dataset::SyntheticConfig synth;
    synth.n = params.initial_points;
    synth.num_queries = 1;
    synth.dim = kDim;
    synth.num_clusters = 4;
    synth.seed = params.seed;
    const auto data = dataset::GenerateClustered(synth);
    index.Build(data);
    for (size_t i = 0; i < data.n(); ++i) {
      model.Insert(static_cast<int32_t>(i),
                   std::vector<float>(data.data.Row(i),
                                      data.data.Row(i) + kDim));
    }
    model.next_id = static_cast<int32_t>(data.n());
  }

  for (size_t step = 0; step < ops.size(); ++step) {
    const Op& op = ops[step];
    switch (op.kind) {
      case Op::kInsert: {
        const std::vector<float> vec = VectorFromPayload(op.payload);
        const int32_t id = index.Insert(vec.data());
        if (id != model.next_id) {
          return "step " + std::to_string(step) + ": Insert returned id " +
                 std::to_string(id) + ", model expected " +
                 std::to_string(model.next_id);
        }
        model.Insert(model.next_id++, vec);
        break;
      }
      case Op::kRemove: {
        if (model.live.empty()) {
          // Nothing live: removing a never-assigned or dead id must fail.
          if (index.Remove(model.next_id) || index.Remove(-1)) {
            return "step " + std::to_string(step) +
                   ": Remove on empty index returned true";
          }
          break;
        }
        const size_t victim = op.payload % model.live.size();
        const int32_t id = model.live[victim].first;
        if (!index.Remove(id)) {
          return "step " + std::to_string(step) + ": Remove(" +
                 std::to_string(id) + ") returned false for a live id";
        }
        if (index.Remove(id)) {
          return "step " + std::to_string(step) + ": double Remove(" +
                 std::to_string(id) + ") returned true";
        }
        model.Remove(victim);
        break;
      }
      case Op::kConsolidate: {
        index.Consolidate();
        if (index.delta_size() != 0 || index.tombstone_count() != 0) {
          return "step " + std::to_string(step) +
                 ": Consolidate left delta=" +
                 std::to_string(index.delta_size()) + " tombstones=" +
                 std::to_string(index.tombstone_count());
        }
        break;
      }
      case Op::kQuery: {
        const std::vector<float> query = VectorFromPayload(op.payload);
        const size_t k = 1 + op.payload % 10;
        const auto got = index.Query(query.data(), k);

        std::vector<util::Neighbor> want;
        if (!model.live.empty()) {
          dataset::Dataset oracle_data;
          oracle_data.metric = util::Metric::kEuclidean;
          oracle_data.data.Resize(model.live.size(), kDim);
          for (size_t i = 0; i < model.live.size(); ++i) {
            std::copy(model.live[i].second.begin(),
                      model.live[i].second.end(), oracle_data.data.Row(i));
          }
          const auto oracle = config.make();
          oracle->Build(oracle_data);
          want = oracle->Query(query.data(), k);
          // Oracle rows are the survivors in ascending global-id order, so
          // the row -> id remap is monotone and cannot reorder ties.
          for (util::Neighbor& nb : want) nb.id = model.live[nb.id].first;
        }
        if (got.size() != want.size()) {
          return "step " + std::to_string(step) + ": query returned " +
                 std::to_string(got.size()) + " neighbors, oracle " +
                 std::to_string(want.size());
        }
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i].id != want[i].id || got[i].dist != want[i].dist) {
            std::ostringstream msg;
            msg << "step " << step << ": rank " << i << " differs: got ("
                << got[i].id << ", " << got[i].dist << "), oracle ("
                << want[i].id << ", " << want[i].dist << ")";
            return msg.str();
          }
        }
        break;
      }
    }
    if (index.live_count() != model.live.size()) {
      return "step " + std::to_string(step) + ": live_count " +
             std::to_string(index.live_count()) + " != model " +
             std::to_string(model.live.size());
    }
  }

  // Terminal cross-check: the index's view of the survivors is the model's.
  index.WaitForRebuild();
  std::vector<int32_t> ids;
  const util::Matrix live = index.LiveVectors(&ids);
  if (ids.size() != model.live.size()) {
    return "LiveVectors returned " + std::to_string(ids.size()) +
           " points, model has " + std::to_string(model.live.size());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != model.live[i].first) {
      return "LiveVectors id mismatch at row " + std::to_string(i);
    }
    for (size_t j = 0; j < kDim; ++j) {
      if (live.At(i, j) != model.live[i].second[j]) {
        return "LiveVectors payload mismatch at row " + std::to_string(i);
      }
    }
  }
  return std::nullopt;
}

std::vector<Op> GenerateOps(util::Rng& rng, size_t num_ops) {
  std::vector<Op> ops(num_ops);
  for (Op& op : ops) {
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 40) {
      op.kind = Op::kInsert;
    } else if (roll < 60) {
      op.kind = Op::kRemove;
    } else if (roll < 95) {
      op.kind = Op::kQuery;
    } else {
      op.kind = Op::kConsolidate;
    }
    op.payload = rng.NextU64() >> 1;  // keep id arithmetic far from overflow
  }
  return ops;
}

/// Greedy delta-debugging: repeatedly drop ops whose removal preserves the
/// failure. Quadratic in the (small) sequence length — plenty for a
/// shrunken counterexample worth printing.
std::vector<Op> Shrink(const IndexConfig& config,
                       const SequenceParams& params, std::vector<Op> ops) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + i);
      if (Replay(config, params, candidate).has_value()) {
        ops = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return ops;
}

void RunSequences(const IndexConfig& config, size_t num_sequences,
                  uint64_t seed_base) {
  for (size_t seq = 0; seq < num_sequences; ++seq) {
    SequenceParams params;
    params.seed = seed_base + seq;
    util::Rng rng(params.seed * 0xD1B54A32D192ED03ULL + 11);
    // Exercise empty starts, small epochs that rebuild often, an
    // effectively-infinite threshold (pure delta), and the background path.
    params.initial_points = (seq % 3 == 0) ? 0 : 20 + rng.NextBounded(40);
    const size_t threshold_roll = seq % 4;
    params.rebuild_threshold = threshold_roll == 0   ? 4
                               : threshold_roll == 1 ? 12
                               : threshold_roll == 2 ? (size_t{1} << 30)
                                                     : 8;
    params.background_rebuild = seq % 2 == 1;
    params.num_ops = 24 + rng.NextBounded(16);
    std::vector<Op> ops = GenerateOps(rng, params.num_ops);

    auto failure = Replay(config, params, ops);
    if (failure.has_value()) {
      const std::vector<Op> minimal = Shrink(config, params, ops);
      const auto minimal_failure = Replay(config, params, minimal);
      FAIL() << config.name << " seq " << seq << " (seed " << params.seed
             << ", n0 " << params.initial_points << ", threshold "
             << params.rebuild_threshold << ", background "
             << params.background_rebuild << "): "
             << minimal_failure.value_or(failure.value())
             << "\nminimal sequence (" << minimal.size()
             << " ops): " << Describe(minimal);
    }
  }
}

size_t SequencesPerConfig() {
  // ≥ 200 sequences across the three configurations by default; CI's TSAN
  // job dials this down (instrumented replays are ~20x slower).
  return eval::EnvSize("LCCS_DYNAMIC_SEQUENCES", 70);
}

TEST(DynamicOracleEquivalence, LinearScan) {
  RunSequences(ConfigsUnderTest()[0], SequencesPerConfig(), 1000);
}

TEST(DynamicOracleEquivalence, LccsLsh) {
  RunSequences(ConfigsUnderTest()[1], SequencesPerConfig(), 2000);
}

TEST(DynamicOracleEquivalence, MpLccsLsh) {
  RunSequences(ConfigsUnderTest()[2], SequencesPerConfig(), 3000);
}

// The stats() snapshot feeds the shard consolidation scheduler
// (serve::ShardedIndex::MaintainShards): all counters must come from one
// lock acquisition and agree with the individual accessors at quiescence.
TEST(DynamicIndexStats, SnapshotTracksMutationsAndConsolidation) {
  DynamicIndex::Options options;
  options.dim = kDim;
  options.rebuild_threshold = 1 << 30;  // no automatic consolidation
  options.background_rebuild = false;
  // Gate on the epoch factory: while armed, the consolidation thread blocks
  // inside its factory() call until the test releases it, so "a rebuild is
  // in flight" below is a deterministic window, not a race against how
  // fast a 9-row rebuild finishes.
  std::atomic<bool> gate_armed{false};
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  const DynamicIndex::Factory base = ConfigsUnderTest()[0].make;
  const DynamicIndex::Factory factory = [&gate_armed, released, base] {
    if (gate_armed.load()) released.wait();
    return base();
  };
  DynamicIndex index(factory, options);

  DynamicIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.live, 0u);
  EXPECT_EQ(stats.epoch_rows, 0u);
  EXPECT_EQ(stats.delta_rows, 0u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.epoch_sequence, 0u);
  EXPECT_FALSE(stats.rebuild_in_flight);
  EXPECT_FALSE(index.rebuild_in_flight());

  for (uint64_t payload = 0; payload < 10; ++payload) {
    const auto vec = VectorFromPayload(payload);
    index.Insert(vec.data());
  }
  ASSERT_TRUE(index.Remove(2));
  ASSERT_TRUE(index.Remove(7));
  stats = index.stats();
  EXPECT_EQ(stats.live, 8u);
  EXPECT_EQ(stats.epoch_rows, 0u);
  EXPECT_EQ(stats.delta_rows, 10u);  // live + tombstoned delta slots
  EXPECT_EQ(stats.tombstones, 2u);
  EXPECT_EQ(stats.delta_rows, index.delta_size());
  EXPECT_EQ(stats.tombstones, index.tombstone_count());

  index.Consolidate();
  stats = index.stats();
  EXPECT_EQ(stats.live, 8u);
  EXPECT_EQ(stats.epoch_rows, 8u);
  EXPECT_EQ(stats.delta_rows, 0u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.epoch_sequence, 1u);
  EXPECT_FALSE(stats.rebuild_in_flight);

  // TriggerRebuild claims the in-flight slot; a second trigger while one
  // runs must be refused (the scheduler counts on that to bound fan-out).
  const auto vec = VectorFromPayload(99);
  index.Insert(vec.data());
  gate_armed.store(true);
  ASSERT_TRUE(index.TriggerRebuild());   // parks in the gated factory
  EXPECT_FALSE(index.TriggerRebuild());  // refused while the first holds it
  EXPECT_TRUE(index.rebuild_in_flight());
  gate_armed.store(false);
  release.set_value();
  index.WaitForRebuild();
  EXPECT_FALSE(index.rebuild_in_flight());
  EXPECT_EQ(index.stats().epoch_sequence, 2u);
}

// Removes that race a consolidation: the rebuild captures its survivors,
// then — while it is parked building the new epoch — epoch rows and a
// captured delta row are removed. Those rows are baked into the new static
// structure and must be stamped dead at install, so the snapshot layer's
// over-fetch and post-filter hide them exactly as it hides removes that
// land after the install. Every later answer must equal brute force over
// the survivors; a snapshot taken before the install keeps its own cut; a
// save/load round trip (tombstone bytes back to stamps) answers the same.
void CheckRemovesRacingConsolidation(const IndexConfig& config) {
  SCOPED_TRACE(config.name);
  DynamicIndex::Options options;
  options.dim = kDim;
  options.rebuild_threshold = 1 << 30;  // no automatic consolidation
  options.background_rebuild = false;
  // The consolidation thread announces that it has captured (it calls the
  // factory only after the capture) and parks until released.
  std::atomic<bool> gate_armed{false};
  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  const DynamicIndex::Factory factory = [&, released] {
    if (gate_armed.exchange(false)) {
      entered.set_value();
      released.wait();
    }
    return config.make();
  };
  DynamicIndex index(factory, options);

  Model model;
  for (uint64_t payload = 0; payload < 50; ++payload) {
    const std::vector<float> vec = VectorFromPayload(payload);
    ASSERT_EQ(index.Insert(vec.data()), model.next_id);
    model.Insert(model.next_id++, vec);
    if (payload == 39) index.Consolidate();  // ids 0..39 epoch, 40..49 delta
  }
  const auto remove = [&](int32_t id) {
    ASSERT_TRUE(index.Remove(id)) << id;
    const auto it = std::find_if(
        model.live.begin(), model.live.end(),
        [id](const auto& entry) { return entry.first == id; });
    ASSERT_NE(it, model.live.end());
    model.live.erase(it);
  };
  remove(3);   // before the capture: consolidated away
  remove(45);
  const Model cut_before = model;
  const Snapshot before = index.AcquireSnapshot();

  gate_armed.store(true);
  ASSERT_TRUE(index.TriggerRebuild());
  entered.get_future().wait();
  // Parked after the capture: these rows are in the epoch being built.
  const std::vector<int32_t> raced = {0, 7, 19, 38, 41};
  for (const int32_t id : raced) remove(id);
  const std::vector<float> late = VectorFromPayload(50);
  ASSERT_EQ(index.Insert(late.data()), model.next_id);  // leftover delta
  model.Insert(model.next_id++, late);
  release.set_value();
  index.WaitForRebuild();

  const DynamicIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.epoch_sequence, 2u);
  EXPECT_EQ(stats.epoch_rows, 48u);  // the capture's survivors
  EXPECT_EQ(stats.delta_rows, 1u);
  EXPECT_EQ(stats.live, model.live.size());
  EXPECT_EQ(stats.tombstones, raced.size());

  // Queries: each raced row's own vector (its removal must not leave a
  // hole in the top k) plus random points.
  std::vector<float> queries;
  for (const int32_t id : raced) {
    const std::vector<float> vec = VectorFromPayload(static_cast<uint64_t>(id));
    queries.insert(queries.end(), vec.begin(), vec.end());
  }
  util::Rng rng(4242);
  for (int i = 0; i < 6; ++i) {
    std::vector<float> vec(kDim);
    rng.FillGaussian(vec.data(), vec.size());
    queries.insert(queries.end(), vec.begin(), vec.end());
  }
  const size_t num_queries = queries.size() / kDim;
  const auto oracle = [](const Model& m, const float* query, size_t k) {
    std::vector<util::Neighbor> all;
    for (const auto& [id, vec] : m.live) {
      all.push_back({id, util::Distance(util::Metric::kEuclidean, vec.data(),
                                        query, kDim)});
    }
    std::sort(all.begin(), all.end());
    if (all.size() > k) all.resize(k);
    return all;
  };

  for (const size_t k : {size_t{1}, size_t{10}, size_t{60}}) {
    const auto batched = index.QueryBatch(queries.data(), num_queries, k, 2);
    const auto pinned = before.QueryBatch(queries.data(), num_queries, k, 2);
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries.data() + q * kDim;
      const auto want = oracle(model, query, k);
      const auto got = index.Query(query, k);
      EXPECT_EQ(got, want) << "k=" << k << " query " << q;
      EXPECT_EQ(batched[q], want) << "k=" << k << " batched query " << q;
      for (const util::Neighbor& nb : got) {
        EXPECT_EQ(std::count(raced.begin(), raced.end(), nb.id), 0)
            << "removed id " << nb.id << " returned";
      }
      EXPECT_EQ(pinned[q], oracle(cut_before, query, k))
          << "pre-install snapshot left its cut, k=" << k << " query " << q;
    }
  }

  // Save -> load: stamps collapse to tombstone bytes and come back as
  // stamps. The epoch payload is rebuilt from the factory at load, which
  // is deterministic for both configurations.
  std::stringstream stream;
  index.SerializeState(
      stream, [](std::ostream&, const baselines::AnnIndex&) {});
  const auto loaded = DynamicIndex::DeserializeState(
      stream, config.make, options,
      [&config](std::istream&, const dataset::Dataset& data) {
        auto epoch = config.make();
        epoch->Build(data);
        return epoch;
      });
  EXPECT_EQ(loaded->stats().tombstones, raced.size());
  EXPECT_EQ(loaded->live_count(), model.live.size());
  for (const size_t k : {size_t{1}, size_t{10}, size_t{60}}) {
    EXPECT_EQ(loaded->QueryBatch(queries.data(), num_queries, k, 2),
              index.QueryBatch(queries.data(), num_queries, k, 2))
        << "k=" << k;
    for (size_t q = 0; q < num_queries; ++q) {
      const float* query = queries.data() + q * kDim;
      EXPECT_EQ(loaded->Query(query, k), index.Query(query, k))
          << "k=" << k << " query " << q;
    }
  }
}

TEST(DynamicIndexConsolidation, RemovesRacingConsolidationLinearScan) {
  CheckRemovesRacingConsolidation(ConfigsUnderTest()[0]);
}

TEST(DynamicIndexConsolidation, RemovesRacingConsolidationLccsLsh) {
  CheckRemovesRacingConsolidation(ConfigsUnderTest()[1]);
}

// The "dataset need not outlive the index" promise survives the zero-copy
// storage refactor even for a borrowed (non-owning) store: Build must
// detect that the store pins nothing and snapshot it.
TEST(DynamicIndexStorage, BuildDeepCopiesBorrowedStores) {
  DynamicIndex::Options options;
  options.rebuild_threshold = 1 << 30;
  options.background_rebuild = false;
  DynamicIndex index(ConfigsUnderTest()[0].make, options);

  std::vector<float> query(kDim, 0.0f);
  {
    auto buffer = std::make_unique<std::vector<float>>(20 * kDim);
    util::Rng rng(61);
    rng.FillGaussian(buffer->data(), buffer->size());
    std::copy(buffer->begin(), buffer->begin() + kDim, query.begin());
    dataset::Dataset borrowed;
    borrowed.metric = util::Metric::kEuclidean;
    borrowed.data =
        storage::VectorStoreRef(storage::WrapBorrowed(buffer->data(), 20, kDim));
    index.Build(borrowed);
    // Poison and free the caller's buffer: the index must not notice.
    std::fill(buffer->begin(), buffer->end(), 1e30f);
  }
  const auto result = index.Query(query.data(), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0);
  EXPECT_EQ(result[0].dist, 0.0);
}

// Non-exhaustive λ: results are approximate, so oracle identity does not
// apply — but every returned id must be a survivor, rankings must be
// sorted, and recall against the recomputed exact answers should be decent
// on clustered data. This is the mode production queries run in.
TEST(DynamicOracleEquivalence, ApproximateModeInvariants) {
  baselines::LccsLshIndex::Params lccs;
  lccs.m = 24;
  lccs.lambda = 60;
  lccs.w = 8.0;
  DynamicIndex::Options options;
  options.dim = 16;
  options.rebuild_threshold = 64;
  options.background_rebuild = false;
  DynamicIndex index(
      [lccs] { return std::make_unique<baselines::LccsLshIndex>(lccs); },
      options);

  dataset::SyntheticConfig synth;
  synth.n = 600;
  synth.num_queries = 20;
  synth.dim = 16;
  synth.num_clusters = 5;
  synth.center_scale = 20.0;
  synth.cluster_stddev = 0.5;
  synth.seed = 7;
  const auto data = dataset::GenerateClustered(synth);
  index.Build(data);

  util::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    std::vector<float> vec(synth.dim);
    rng.FillGaussian(vec.data(), vec.size());
    index.Insert(vec.data());
  }
  for (int32_t id = 0; id < 300; id += 3) index.Remove(id);
  ASSERT_EQ(index.live_count(), 600u + 200u - 100u);

  for (size_t q = 0; q < data.num_queries(); ++q) {
    const auto result = index.Query(data.queries.Row(q), 10);
    EXPECT_LE(result.size(), 10u);
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_TRUE(index.Contains(result[i].id))
          << "query " << q << " returned dead id " << result[i].id;
      if (i > 0) {
        EXPECT_LE(result[i - 1].dist, result[i].dist);
      }
    }
  }
  const double recall = eval::DynamicRecall(index, data.queries, 10);
  EXPECT_GT(recall, 0.5) << "approximate recall collapsed after mutations";
}

// Regression for the tombstone under-fetch bug: the wrapped scheme fetched
// λ + k - 1 candidates and *then* dropped tombstoned rows, so with enough
// base tombstones the verified set thinned below k while live rows existed.
// A save/load round trip is the cleanest reproduction — LoadDynamicIndex
// turns every tombstone into a stamp the snapshot over-fetches by.
// With the fix, the per-query budget grows by the tombstone count, making
// the search exhaustive here (budget ≥ n), so the answer must equal the
// brute-force k-NN over the survivors exactly — ids and bit-identical
// distances.
TEST(DynamicIndexTest, DeleteHeavyEpochStillReturnsKAfterReload) {
  baselines::LccsLshIndex::Params lccs;
  lccs.m = 16;
  lccs.lambda = 100;
  lccs.w = 4.0;
  DynamicIndex::Options options;
  options.dim = kDim;
  options.rebuild_threshold = 1 << 20;  // no consolidation mid-test
  options.background_rebuild = false;
  DynamicIndex index(
      [lccs] { return std::make_unique<baselines::LccsLshIndex>(lccs); },
      options);

  dataset::SyntheticConfig synth;
  synth.n = 400;
  synth.num_queries = 12;
  synth.dim = kDim;
  synth.num_clusters = 6;
  synth.center_scale = 16.0;
  synth.cluster_stddev = 1.0;
  synth.seed = 21;
  const auto data = dataset::GenerateClustered(synth);
  index.Build(data);

  // Tombstone 3 of every 4 rows: 300 dead, 100 live — far more dead rows
  // than the λ + k - 1 = 109 candidates the old budget fetched.
  for (int32_t id = 0; id < static_cast<int32_t>(synth.n); ++id) {
    if (id % 4 != 0) {
      ASSERT_TRUE(index.Remove(id));
    }
  }
  ASSERT_EQ(index.live_count(), 100u);

  const std::string path =
      testing::TempDir() + "/lccs_delete_heavy_reload.lccs";
  SaveDynamicIndex(path, lccs, index);
  const auto loaded = LoadDynamicIndex(path, options);
  ASSERT_EQ(loaded->live_count(), 100u);

  const size_t k = 10;
  for (size_t q = 0; q < data.num_queries(); ++q) {
    const float* query = data.queries.Row(q);
    // Brute-force oracle over the survivors, same distance kernels.
    std::vector<util::Neighbor> oracle;
    for (int32_t id = 0; id < static_cast<int32_t>(synth.n); id += 4) {
      oracle.push_back(
          {id, util::Distance(data.metric, data.data.Row(id), query, kDim)});
    }
    std::sort(oracle.begin(), oracle.end());
    oracle.resize(k);

    const auto result = loaded->Query(query, k);
    ASSERT_EQ(result.size(), k) << "under-fetch starved query " << q;
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(result[i].id, oracle[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(result[i].dist, oracle[i].dist)
          << "query " << q << " rank " << i;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace core
}  // namespace lccs
