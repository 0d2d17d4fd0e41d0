#ifndef TDE_OBSERVE_JOURNAL_H_
#define TDE_OBSERVE_JOURNAL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tde {
namespace observe {

/// The registry counters a single query can be charged for: the bytes its
/// scans traversed, its pager traffic, and its compressed-domain wins.
/// Every increment flows through QueryCount(), which adds to the global
/// MetricsRegistry counter *and* to the StatsScope of the query running on
/// the incrementing thread, so per-query deltas in the journal sum exactly
/// to the global counters — including under concurrent queries, because
/// each increment lands in exactly one scope. The scans and the pager
/// charge the first five where the work happens; the rest are counted on
/// the stats node of the operator that shows them (OperatorStats::counts)
/// and charged once the query has run.
enum class QueryCounter : int {
  kBytesScannedCompressed = 0,  // stored bytes the scans traversed
  kBytesScannedDecoded,         // bytes after decode (rows * lane width)
  kCacheHits,                   // pager.hits — materializations avoided
  kCacheMisses,                 // pager.misses — cold-column faults
  kCacheBytesRead,              // pager.bytes_read — blob bytes fetched
  kRowsPruned,                  // filter.rows_pruned — metadata/run prunes
  kRunsSkipped,                 // filter.runs_skipped
  kSegmentsPruned,              // filter.segments_pruned — zone-map skips
  kDictRewrites,                // filter.dict_rewrites
  kRunsFolded,                  // agg.runs_folded
  kGroupsLateMaterialized,      // agg.groups_late_materialized
  kMetadataAnswers,             // agg.metadata_answers
  kRowsMaterialized,            // sort.rows_materialized — rows a sort kept
  kTopNSegmentsSkipped,         // sort.topn_segments_skipped — zone skips
  kDictKeySorts,                // sort.dict_key_sorts — integer-domain keys
  kRunsSorted,                  // sort.runs_sorted — runs ordered, not rows
  kCount,
};

inline constexpr int kNumQueryCounters =
    static_cast<int>(QueryCounter::kCount);

/// Global metric name of a query counter ("pager.hits", ...).
const char* QueryCounterMetricName(QueryCounter c);
/// Column name the counter appears under in tde_queries ("cache_hits", ...).
const char* QueryCounterColumnName(QueryCounter c);

/// Records `n` events against counter `c`: the global registry counter and
/// the calling thread's active StatsScope (if any). No-op when stats
/// collection is disabled — one relaxed load on the hot path.
void QueryCount(QueryCounter c, uint64_t n = 1);

/// Per-query counter sink. The executor opens one scope around each query
/// (build + run); collection points attribute through QueryCount. Scopes
/// are thread-local and nest (the previous scope is restored on
/// destruction). Worker threads spawned inside a query adopt the parent's
/// scope with StatsScope::Bind, which also folds their thread CPU time
/// into the scope.
class StatsScope {
 public:
  StatsScope();
  ~StatsScope();

  StatsScope(const StatsScope&) = delete;
  StatsScope& operator=(const StatsScope&) = delete;

  void Add(QueryCounter c, uint64_t n) {
    v_[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value(QueryCounter c) const {
    return v_[static_cast<int>(c)].load(std::memory_order_relaxed);
  }

  /// CPU nanoseconds attributed to this scope so far: the opening thread's
  /// consumption since construction plus every unbound worker's total.
  uint64_t CpuNs() const;

  /// The scope active on the calling thread (null outside any query).
  static StatsScope* Current();

  /// RAII adoption of a scope by a worker thread: installs `scope` as the
  /// thread's current scope and, on destruction, credits the thread's CPU
  /// time to it. A null scope is a no-op, so call sites need no stats-
  /// enabled check.
  class Bind {
   public:
    explicit Bind(StatsScope* scope);
    ~Bind();
    Bind(const Bind&) = delete;
    Bind& operator=(const Bind&) = delete;

   private:
    StatsScope* scope_;
    StatsScope* prev_;
    uint64_t cpu0_ = 0;
  };

 private:
  std::array<std::atomic<uint64_t>, kNumQueryCounters> v_{};
  std::atomic<uint64_t> worker_cpu_ns_{0};
  uint64_t own_cpu0_ = 0;
  StatsScope* parent_;
};

/// CPU time of the calling thread in nanoseconds (CLOCK_THREAD_CPUTIME_ID).
uint64_t ThreadCpuNs();

/// One completed query, as recorded in the journal.
struct QueryJournalEntry {
  uint64_t id = 0;
  /// SQL text (truncated to kMaxSqlBytes); empty for plan-API queries.
  std::string sql;
  /// FNV-1a hash of the optimized plan's rendering: queries with the same
  /// shape share a fingerprint regardless of literals' formatting.
  uint64_t plan_fingerprint = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  uint64_t rows_out = 0;
  bool ok = true;
  /// Delta snapshot of the query-attributable counters (QueryCounter
  /// order): what *this* query scanned, faulted, pruned and folded.
  std::array<uint64_t, kNumQueryCounters> counters{};

  /// {"id":...,"sql":...,...,"cache_hits":...} — one NDJSON record.
  std::string ToJson() const;
};

/// Fixed-capacity, thread-safe ring of completed queries. One process-wide
/// instance behind Global(); scoped instances for tests. Recording is one
/// mutex acquisition per *query* (not per row), so it never shows up in
/// operator hot paths.
class QueryJournal {
 public:
  static constexpr size_t kDefaultCapacity = 256;
  static constexpr size_t kMaxSqlBytes = 512;

  static QueryJournal& Global();

  explicit QueryJournal(size_t capacity = kDefaultCapacity);

  /// Allocates the next query id (monotonic, never reused, starts at 1).
  uint64_t NextId();

  /// Appends an entry, evicting the oldest past capacity, and emits the
  /// slow-query line to stderr when the entry's wall time meets the
  /// TDE_SLOW_QUERY_MS threshold.
  void Record(QueryJournalEntry entry);

  /// Entries currently retained, oldest first.
  std::vector<QueryJournalEntry> Snapshot() const;

  /// Newline-delimited JSON, one entry per line, oldest first.
  std::string ToNdjson() const;

  void Clear();
  size_t size() const;
  size_t capacity() const { return capacity_; }
  void set_capacity(size_t n);

  /// Slow-query threshold in milliseconds; < 0 disables. Initialized from
  /// the TDE_SLOW_QUERY_MS environment variable (unset disables).
  static int64_t SlowQueryThresholdMs();
  static void SetSlowQueryThresholdMs(int64_t ms);

 private:
  mutable std::mutex mu_;
  std::deque<QueryJournalEntry> entries_;
  size_t capacity_;
  std::atomic<uint64_t> next_id_{1};
};

/// Thread-local "SQL text of the query being executed": Engine::ExecuteSql
/// installs one of these so the executor can stamp journal entries with
/// the originating statement. The view must outlive the scope.
class ScopedQueryText {
 public:
  explicit ScopedQueryText(std::string_view sql);
  ~ScopedQueryText();
  ScopedQueryText(const ScopedQueryText&) = delete;
  ScopedQueryText& operator=(const ScopedQueryText&) = delete;

 private:
  std::string_view prev_;
};

/// The SQL text installed on this thread (empty outside ExecuteSql).
std::string_view CurrentQueryText();

/// Journal id of the last query recorded by the calling thread (0 before
/// any). EXPLAIN ANALYZE prints it so a plan can be joined against
/// tde_queries after the fact.
uint64_t LastJournalIdOnThread();
void SetLastJournalIdOnThread(uint64_t id);

}  // namespace observe
}  // namespace tde

#endif  // TDE_OBSERVE_JOURNAL_H_
