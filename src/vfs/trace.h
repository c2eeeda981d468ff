// I/O trace model.
//
// A TraceContext collects, per simulated compute-node rank, the ordered
// sequence of I/O operations that the library under test actually issued
// (through a TraceVfs). The pfs::LustreSim later replays these traces on a
// simulated parallel file system to obtain virtual timings; the data itself
// lands in the wrapped Vfs (normally MemVfs) so results stay verifiable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/synchronization.h"

namespace lsmio::vfs {

enum class IoOpKind : uint8_t {
  kCreate,      // namespace op: create file            (MDS)
  kOpen,        // namespace op: open existing          (MDS)
  kClose,       // namespace op: close                  (MDS)
  kRemove,      // namespace op: unlink                 (MDS)
  kRename,      // namespace op: rename                 (MDS)
  kStat,        // namespace op: getattr/size/list      (MDS)
  kWrite,       // data op: write `size` bytes at `offset` of `file`
  kRead,        // data op: read `size` bytes at `offset` of `file`
  kSync,        // durability barrier on `file` (waits for its dirty extents)
  kCompute,     // CPU work: `size` = nanoseconds of virtual compute
  kBarrier,     // synchronization with all ranks at barrier id `size`
  kPhaseBegin,  // start of the timed region
  kPhaseEnd,    // end of the timed region
};

/// Sentinel for ops with no file operand.
inline constexpr uint32_t kNoFile = 0xffffffffu;

/// One traced operation. Interpretation of offset/size depends on kind
/// (see IoOpKind comments).
struct IoOp {
  IoOpKind kind;
  uint32_t file = kNoFile;
  uint64_t offset = 0;
  uint64_t size = 0;
};

/// The ordered op list of one rank.
struct IoTrace {
  int rank = 0;
  std::vector<IoOp> ops;
};

namespace internal {
/// Per-rank recording lock: a rank's trace is normally appended by its own
/// thread, but engine background work (e.g. the LSM flush thread) records
/// through the same rank's TraceVfs concurrently.
struct TraceLock {
  Mutex mu;
};
}  // namespace internal

/// Shared recording context for an N-rank benchmark run.
///
/// File paths are interned to dense ids so the simulator can map files to
/// stripe layouts and detect cross-rank sharing. Each rank records into its
/// own trace; only the intern table takes a lock, so recording from N rank
/// threads is cheap.
class TraceContext {
 public:
  explicit TraceContext(int num_ranks);

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Returns the dense id of `path`, interning it on first use. Thread-safe.
  uint32_t InternFile(const std::string& path);

  /// Path for an interned id (valid ids only).
  [[nodiscard]] const std::string& PathOf(uint32_t file_id) const;

  [[nodiscard]] int num_ranks() const noexcept { return num_ranks_; }
  [[nodiscard]] size_t num_files() const;

  /// Appends an op to `rank`'s trace. Thread-safe per rank (a rank's own
  /// thread and engine background threads may record concurrently).
  void Record(int rank, const IoOp& op);

  /// Convenience markers used by benchmark harnesses.
  void RecordBarrier(int rank, uint64_t barrier_id);
  void RecordCompute(int rank, uint64_t nanos);
  void RecordPhaseBegin(int rank);
  void RecordPhaseEnd(int rank);

  [[nodiscard]] const IoTrace& TraceForRank(int rank) const;
  [[nodiscard]] const std::vector<IoTrace>& traces() const noexcept { return traces_; }

  /// Total bytes written/read across all ranks inside the timed region.
  [[nodiscard]] uint64_t BytesWrittenInPhase() const;
  [[nodiscard]] uint64_t BytesReadInPhase() const;

 private:
  int num_ranks_;  // unguarded: immutable after construction
  // unguarded: each rank's trace is appended only under its own
  // trace_locks_[rank].mu; the vector itself is sized once in the ctor.
  std::vector<IoTrace> traces_;
  std::unique_ptr<internal::TraceLock[]> trace_locks_;  // unguarded: immutable after construction

  mutable Mutex intern_mu_;
  std::unordered_map<std::string, uint32_t> path_to_id_ GUARDED_BY(intern_mu_);
  std::vector<std::string> id_to_path_ GUARDED_BY(intern_mu_);
};

}  // namespace lsmio::vfs
