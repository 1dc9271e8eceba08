// Tuning-record persistence.
//
// The paper's workflow ends with "autoGEMM generates high-performance code
// using the optimal parameters and packages it in the library": tuned
// parameters are an ahead-of-time artifact. TuningRecords is that
// artifact — a per-shape table of winning candidates with their measured
// costs, serializable to a plain-text format so a tuning campaign survives
// the process.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>

#include "backend/backend_id.hpp"
#include "common/status.hpp"
#include "tune/search_space.hpp"

namespace autogemm::tune {

struct ShapeKey {
  int m = 0, n = 0, k = 0;
  auto operator<=>(const ShapeKey&) const = default;
};

/// Builds a GemmConfig from a tuned candidate (the tune -> core bridge):
/// the record's blocking/order/packing/backend over the heuristic defaults.
GemmConfig config_from_candidate(int m, int n, int k, const Candidate& c);

class TuningRecords {
 public:
  /// Inserts or improves the record for a shape under the candidate's
  /// backend (kept only if `cost` beats the stored one; records for the
  /// same shape under *different* backends coexist — the per-shape winner
  /// across backends is the lookup caller's choice). Returns true if
  /// stored.
  bool add(const ShapeKey& shape, const Candidate& candidate, double cost);

  /// Exact-shape record *for the requested backend only*: a mixed-backend
  /// file never resolves an SVE blocking for a NEON caller or vice versa.
  /// The default keeps legacy (pre-backend) callers on the NEON table.
  /// Records are fp32 configs: int8 calls never resolve a plan.
  std::optional<Candidate> lookup(
      const ShapeKey& shape,
      backend::BackendId backend = backend::BackendId::kNeon) const;
  std::optional<double> cost(
      const ShapeKey& shape,
      backend::BackendId backend = backend::BackendId::kNeon) const;
  std::size_t size() const { return records_.size(); }

  /// Nearest-shape fallback for untuned shapes: returns the record whose
  /// shape minimizes sum_d |log2(want_d / have_d)| over (m, n, k) — tuned
  /// parameters transfer between shapes of similar aspect, so a serving
  /// context prefers a close record over the cold heuristic. Scoped to
  /// `backend` exactly like lookup(): records for other backends are
  /// invisible, however near their shapes. Returns nullopt when no
  /// in-backend record exists or the best distance exceeds
  /// `max_log2_distance` (default: within ~2x total across the three
  /// dimensions).
  std::optional<Candidate> lookup_nearest(
      const ShapeKey& shape, double max_log2_distance = 1.0,
      backend::BackendId backend = backend::BackendId::kNeon) const;

  /// Outcome of a tolerant load: how many records survived and how many
  /// lines were skipped as corrupt (malformed fields, out-of-range enums,
  /// checksum mismatches, truncated tails).
  struct LoadReport {
    std::size_t loaded = 0;
    std::size_t skipped = 0;
  };

  /// Text format: a `autogemm-records v1` header line, then one record per
  /// line with a trailing FNV-1a line checksum:
  ///   m n k mc nc kc loop_order packing cost [strategy] [backend] c=<hex>
  /// `strategy` is the candidate's ParallelStrategy as an int; it is
  /// optional on load (legacy 9-field lines read as kAuto) and always
  /// written on save. `backend` is the candidate's BackendId as an int and
  /// is likewise optional on load — legacy 9- and 10-field lines read as
  /// NEON, the only backend that existed when they were written — and
  /// always written on save. Lines written while records carried a dtype
  /// have a 12th field: `0` (fp32) loads like the 11-field line, any other
  /// value names a tier no record resolves for and the line is skipped as
  /// an unknown dtype. Returns non-OK if the stream enters a failed state.
  Status save(std::ostream& os) const;
  /// Replaces the current contents. Headerless streams (seed-era files)
  /// load as v1, and lines without the `c=` checksum field are accepted
  /// unverified (legacy/hand-edited files). Corrupt lines — malformed
  /// fields, out-of-range enums, checksum mismatches — are skipped and
  /// counted in `report`, never fatal: a partially damaged file yields its
  /// valid records plus kDataLoss. An `autogemm-records` header with an
  /// unknown version is the one hard error (kInvalidArgument, nothing
  /// loaded): the format itself is unintelligible, not merely damaged.
  Status load(std::istream& is, LoadReport* report = nullptr);

  /// add()-merges every record from `other` into this table: per
  /// (shape, backend) slot the lower-cost record wins, so merging is
  /// order-independent and never discards a better measurement.
  void merge_from(const TuningRecords& other);

  /// Atomic save: writes to a temp file in the destination directory, then
  /// renames over `path`, so a crash or write failure mid-save can never
  /// leave a truncated records file behind (the old contents survive).
  Status save_file(const std::string& path) const;

  /// Merge-on-save for concurrent writers (the online tuner persisting
  /// into a file a tuning campaign — or a second process — also writes):
  /// re-reads `path`, add()-merges the on-disk records into a copy of this
  /// table (per-slot min cost, so neither writer's better record is lost),
  /// then save_file()s the union atomically. A missing/unreadable file
  /// degrades to a plain save of this table; a *damaged* file contributes
  /// its salvageable records. The one refusal is an intelligible-but-
  /// unknown format version (kInvalidArgument): overwriting a future
  /// format with ours would destroy data we cannot see. Last-writer-wins
  /// races between two merged saves can still drop the *other* writer's
  /// record added between our read and our rename — but only where ours
  /// measured cheaper; an external file lock is the caller's concern if
  /// that window matters.
  Status save_file_merged(const std::string& path) const;

  Status load_file(const std::string& path, LoadReport* report = nullptr);

 private:
  /// Storage key: one record slot per (shape, backend) pair, so a tuning
  /// campaign that prices several tiers keeps the per-shape winner of
  /// *each*.
  struct RecordKey {
    ShapeKey shape;
    backend::BackendId backend = backend::BackendId::kNeon;
    auto operator<=>(const RecordKey&) const = default;
  };
  struct Record {
    Candidate candidate;
    double cost = 0;
  };
  std::map<RecordKey, Record> records_;
};

}  // namespace autogemm::tune
