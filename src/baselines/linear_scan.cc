#include "baselines/linear_scan.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "storage/quantized_store.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace baselines {

namespace {

/// Quantized first pass of a full scan: scores all n rows on the int8 codes
/// (contiguous, heap-resident) and keeps the best k' rows, ascending.
/// Shared by Query and QueryBatch so both produce the identical pruned set.
std::vector<int32_t> QuantizedSweep(const storage::QuantizedStore& qs,
                                    const storage::QuantizedStore::PreparedQuery& pq,
                                    size_t row_offset, size_t n,
                                    size_t keep) {
  storage::RerankSelector selector(keep);
  // Block the contiguous sweep so the score buffer stays cache-resident.
  constexpr size_t kBlock = 4096;
  std::vector<float> scores(std::min(n, kBlock));
  for (size_t row = 0; row < n; row += kBlock) {
    const size_t len = std::min(kBlock, n - row);
    qs.ScoreCandidates(pq, /*ids=*/nullptr, len, row_offset + row,
                       scores.data());
    for (size_t i = 0; i < len; ++i) {
      selector.Offer(scores[i], static_cast<int32_t>(row + i));
    }
  }
  return selector.TakeAscendingIds();
}

}  // namespace

void LinearScan::Build(const dataset::Dataset& data) {
  store_ = data.data.store();
  metric_ = data.metric;
}

std::vector<util::Neighbor> LinearScan::Query(const float* query,
                                              size_t k) const {
  assert(store_ != nullptr);
  util::TopK topk(k);
  // Blocked sweep rather than one VerifyCandidates over all n: contiguous
  // blocks with ascending first_id offer candidates in exactly the same
  // order (bit-identical results — the invariant QueryBatch already leans
  // on), while the per-block advisories let a budgeted mmap store bound its
  // residency mid-scan instead of being told about the whole file once.
  const size_t d = store_->cols();
  const size_t n = store_->rows();
  const float* base = store_->data();
  size_t qoff = 0;
  const storage::QuantizedStore* qs =
      storage::ActiveQuantized(store_.get(), metric_, &qoff);
  if (qs != nullptr && k > 0 && n > storage::RerankKeep(k)) {
    // Two-phase scan: rank every row on the in-RAM codes, fetch only the
    // k' survivors' exact rows. Turns an O(n) disk sweep into an O(n)
    // in-RAM sweep plus k' faults for an mmap-backed store.
    const std::vector<int32_t> pruned = QuantizedSweep(
        *qs, qs->Prepare(query), qoff, n, storage::RerankKeep(k));
    storage::ExactRerank(*store_, metric_, query, pruned.data(),
                         pruned.size(), topk);
    return topk.Sorted();
  }
  const size_t block =
      d > 0 ? std::max<size_t>(4, (size_t{4} << 20) / (d * sizeof(float))) : n;
  for (size_t row = 0; row < n; row += block) {
    const size_t len = std::min(block, n - row);
    store_->PrefetchRange(row, len);
    util::VerifyCandidates(metric_, base, d, query, /*ids=*/nullptr, len,
                           topk, static_cast<int32_t>(row));
  }
  return topk.Sorted();
}

std::vector<std::vector<util::Neighbor>> LinearScan::QueryBatch(
    const float* queries, size_t num_queries, size_t k,
    size_t num_threads) const {
  assert(store_ != nullptr);
  const size_t d = store_->cols();
  const size_t n = store_->rows();
  const util::Metric metric = metric_;
  const float* base = store_->data();
  const storage::VectorStore& rows = *store_;
  size_t qoff = 0;
  const storage::QuantizedStore* qs =
      storage::ActiveQuantized(store_.get(), metric_, &qoff);
  if (qs != nullptr && k > 0 && n > storage::RerankKeep(k)) {
    // Same two-phase sweep as Query, one query per ParallelFor item — the
    // pruned sets (and therefore results) match the per-query path exactly.
    std::vector<std::vector<util::Neighbor>> pruned_results(num_queries);
    util::ParallelFor(
        num_queries,
        [&](size_t begin, size_t end) {
          for (size_t q = begin; q < end; ++q) {
            const std::vector<int32_t> pruned = QuantizedSweep(
                *qs, qs->Prepare(queries + q * d), qoff, n,
                storage::RerankKeep(k));
            util::TopK topk(k);
            storage::ExactRerank(rows, metric, queries + q * d,
                                 pruned.data(), pruned.size(), topk);
            pruned_results[q] = topk.Sorted();
          }
        },
        num_threads);
    return pruned_results;
  }
  // Cache blocking: a block of rows is verified against every query in the
  // chunk before moving on, so the block stays resident across queries.
  // ~128 KiB of rows per block.
  const size_t block = std::clamp<size_t>(
      size_t{32768} / std::max<size_t>(1, d), 4, 1024);
  std::vector<std::vector<util::Neighbor>> results(num_queries);
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        std::vector<util::TopK> heaps;
        heaps.reserve(end - begin);
        for (size_t q = begin; q < end; ++q) heaps.emplace_back(k);
        for (size_t row = 0; row < n; row += block) {
          const size_t len = std::min(block, n - row);
          // One advisory per block, not per query: the block is re-scanned
          // (end - begin) times but only faulted / charged once.
          rows.PrefetchRange(row, len);
          for (size_t q = begin; q < end; ++q) {
            util::VerifyCandidates(metric, base, d, queries + q * d,
                                   /*ids=*/nullptr, len, heaps[q - begin],
                                   static_cast<int32_t>(row));
          }
        }
        for (size_t q = begin; q < end; ++q) {
          results[q] = heaps[q - begin].Sorted();
        }
      },
      num_threads);
  return results;
}

}  // namespace baselines
}  // namespace lccs
