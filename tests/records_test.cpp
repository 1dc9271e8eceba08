// Tuning-record persistence: round trips, improvement semantics, and
// malformed input handling (the tolerant skip-and-report loader).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "backend/backend.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "core/plan.hpp"
#include "tune/records.hpp"
#include "tune/tuner.hpp"

namespace autogemm::tune {
namespace {

Candidate make_candidate(int mc) {
  return {mc, 32, 16, LoopOrder::kKNM, kernels::Packing::kOffline};
}

TEST(Records, AddAndLookup) {
  TuningRecords records;
  EXPECT_TRUE(records.add({64, 64, 64}, make_candidate(16), 1000.0));
  ASSERT_TRUE(records.lookup({64, 64, 64}).has_value());
  EXPECT_EQ(records.lookup({64, 64, 64})->mc, 16);
  EXPECT_FALSE(records.lookup({1, 2, 3}).has_value());
  EXPECT_EQ(records.cost({64, 64, 64}).value(), 1000.0);
}

TEST(Records, KeepsOnlyImprovements) {
  TuningRecords records;
  records.add({8, 8, 8}, make_candidate(4), 500.0);
  EXPECT_FALSE(records.add({8, 8, 8}, make_candidate(2), 600.0));  // worse
  EXPECT_EQ(records.lookup({8, 8, 8})->mc, 4);
  EXPECT_TRUE(records.add({8, 8, 8}, make_candidate(8), 400.0));  // better
  EXPECT_EQ(records.lookup({8, 8, 8})->mc, 8);
}

TEST(Records, StreamRoundTrip) {
  TuningRecords records;
  records.add({64, 64, 64}, make_candidate(16), 1234.5);
  records.add({256, 3136, 64},
              {128, 240, 64, LoopOrder::kNKM, kernels::Packing::kNone},
              9.75e6);
  std::stringstream ss;
  EXPECT_TRUE(records.save(ss).ok());

  TuningRecords loaded;
  TuningRecords::LoadReport report;
  EXPECT_TRUE(loaded.load(ss, &report).ok());
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_EQ(loaded.size(), 2u);
  const auto c = loaded.lookup({256, 3136, 64});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->mc, 128);
  EXPECT_EQ(c->loop_order, LoopOrder::kNKM);
  EXPECT_EQ(c->packing, kernels::Packing::kNone);
  EXPECT_NEAR(loaded.cost({64, 64, 64}).value(), 1234.5, 1e-9);
}

TEST(Records, MalformedLinesSkippedAndReported) {
  // The loader is tolerant: a damaged line is skipped and counted, never
  // thrown on — one flipped bit must not cost every healthy record.
  TuningRecords records;
  std::stringstream ss("64 64 64 16 not-a-number 16 0 1 10.0\n");
  TuningRecords::LoadReport report;
  const Status s = records.load(ss, &report);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(records.size(), 0u);

  std::stringstream bad_enum("64 64 64 16 32 16 9 1 10.0\n");
  EXPECT_EQ(records.load(bad_enum, &report).code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.skipped, 1u);

  std::stringstream bad_dims("-3 64 64 16 32 16 0 1 10.0\n");
  EXPECT_EQ(records.load(bad_dims, &report).code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.skipped, 1u);
}

TEST(Records, PartiallyCorruptStreamLoadsValidRecords) {
  TuningRecords records;
  std::stringstream ss(
      "autogemm-records v1\n"
      "64 64 64 16 32 16 2 1 10.0\n"
      "this line is garbage\n"
      "128 128 128 32 64 32 0 1 20.0\n"
      "8 8 8 4 4 garbage 0 0 5.0\n");
  TuningRecords::LoadReport report;
  const Status s = records.load(ss, &report);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.skipped, 2u);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_TRUE(records.lookup({64, 64, 64}).has_value());
  EXPECT_TRUE(records.lookup({128, 128, 128}).has_value());
}

TEST(Records, TruncatedLastLineSkipped) {
  // A torn write leaves a final line cut mid-field; the records before it
  // must survive the load.
  TuningRecords full;
  full.add({64, 64, 64}, make_candidate(16), 10.0);
  full.add({128, 128, 128}, make_candidate(32), 20.0);
  std::stringstream ss;
  ASSERT_TRUE(full.save(ss).ok());
  std::string text = ss.str();
  text.resize(text.size() - 20);  // chop into the last record's tail

  TuningRecords loaded;
  TuningRecords::LoadReport report;
  std::stringstream truncated(text);
  const Status s = loaded.load(truncated, &report);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.loaded, 1u);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(loaded.size(), 1u);
}

TEST(Records, ChecksumMismatchDetected) {
  // Flip one payload character of a checksummed line: the FNV-1a check
  // must reject it even though the line still parses cleanly.
  TuningRecords records;
  records.add({64, 64, 64}, make_candidate(16), 10.0);
  std::stringstream ss;
  ASSERT_TRUE(records.save(ss).ok());
  std::string text = ss.str();
  const auto pos = text.find("64 64 64");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '6';
  text[pos + 1] = '5';  // "64 ..." -> "65 ..." — still a valid record shape

  TuningRecords loaded;
  TuningRecords::LoadReport report;
  std::stringstream tampered(text);
  EXPECT_EQ(loaded.load(tampered, &report).code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(Records, CommentsAndBlankLinesIgnored) {
  TuningRecords records;
  std::stringstream ss("# header\n\n64 64 64 16 32 16 2 1 10.0\n");
  EXPECT_TRUE(records.load(ss).ok());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(records.lookup({64, 64, 64})->loop_order, LoopOrder::kKNM);
}

TEST(Records, FileRoundTrip) {
  TuningRecords records;
  records.add({4, 5, 6}, make_candidate(2), 42.0);
  const std::string path = "/tmp/autogemm_records_test.txt";
  ASSERT_TRUE(records.save_file(path).ok());
  TuningRecords loaded;
  ASSERT_TRUE(loaded.load_file(path).ok());
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.load_file("/nonexistent/dir/records.txt").code(),
            StatusCode::kUnavailable);
}

TEST(Records, TunePathRecordIsAppliedByADefaultContext) {
  // `autogemm tune M N K --out FILE`, then ContextOptions::records_path:
  // the record targets the backend a default Context resolves on this
  // host (x86_wide or neon), so the Context resolves it instead of
  // silently falling back to default_config.
  const int m = 48, n = 80, k = 96;
  const TuneResult tuned = tune_for_backend(m, n, k);
  EXPECT_EQ(tuned.best.backend,
            backend::resolve_backend(backend::BackendId::kAuto));
  TuningRecords records;
  records.add({m, n, k}, tuned.best, tuned.best_cost);
  const std::string path = "/tmp/autogemm_tune_path_records_test.txt";
  ASSERT_TRUE(records.save_file(path).ok());
  ContextOptions opts;
  opts.records_path = path;
  Context ctx(opts);
  std::remove(path.c_str());
  common::Matrix a(m, k), b(k, n), c(m, n);
  common::fill_random(a.view(), 1);
  common::fill_random(b.view(), 2);
  ASSERT_TRUE(ctx.run(a.view(), b.view(), c.view()).ok());
  EXPECT_EQ(ctx.stats().resolved_exact, 1u);
}

TEST(Records, SaveFileLeavesNoTempBehind) {
  TuningRecords records;
  records.add({4, 5, 6}, make_candidate(2), 42.0);
  const std::string path = "/tmp/autogemm_records_atomic_test.txt";
  ASSERT_TRUE(records.save_file(path).ok());
  // The atomic temp-then-rename protocol must not leave its scratch file.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(Records, SaveWritesVersionHeader) {
  TuningRecords records;
  records.add({64, 64, 64}, make_candidate(16), 10.0);
  std::stringstream ss;
  ASSERT_TRUE(records.save(ss).ok());
  std::string first_line;
  std::getline(ss, first_line);
  EXPECT_EQ(first_line, "autogemm-records v1");
}

TEST(Records, SaveAppendsPerLineChecksum) {
  TuningRecords records;
  records.add({64, 64, 64}, make_candidate(16), 10.0);
  std::stringstream ss;
  ASSERT_TRUE(records.save(ss).ok());
  std::string line;
  std::getline(ss, line);  // header
  std::getline(ss, line);  // field comment
  std::getline(ss, line);  // the record
  EXPECT_NE(line.find(" c="), std::string::npos);
}

TEST(Records, LoadsHeaderlessLegacyStream) {
  // Seed-era files had no header line and no checksums; they must keep
  // loading as v1 (unverified).
  TuningRecords records;
  std::stringstream ss("64 64 64 16 32 16 2 1 10.0\n");
  EXPECT_TRUE(records.load(ss).ok());
  EXPECT_EQ(records.size(), 1u);
}

TEST(Records, LoadRejectsUnknownVersion) {
  // Unlike a corrupt line, an unknown format version means *nothing* in
  // the file can be trusted: hard error, nothing loaded.
  TuningRecords records;
  std::stringstream ss("autogemm-records v2\n64 64 64 16 32 16 2 1 10.0\n");
  const Status s = records.load(ss);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(records.size(), 0u);
}

TEST(Records, HeaderedRoundTripAfterComments) {
  TuningRecords records;
  std::stringstream ss(
      "# produced by the tuner\nautogemm-records v1\n"
      "64 64 64 16 32 16 2 1 10.0\n");
  EXPECT_TRUE(records.load(ss).ok());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(records.lookup({64, 64, 64})->loop_order, LoopOrder::kKNM);
}

TEST(Records, LookupNearestTransfersAndBounds) {
  TuningRecords records;
  records.add({64, 64, 64}, make_candidate(16), 10.0);
  records.add({512, 512, 512}, make_candidate(128), 20.0);
  // 60^3 is closest to 64^3 (total log2 distance ~0.28).
  const auto near = records.lookup_nearest({60, 60, 60});
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->mc, 16);
  // 450^3 is closest to 512^3 (and within the bound; 400^3 would total
  // ~1.07 in log2 distance and be rejected).
  EXPECT_EQ(records.lookup_nearest({450, 450, 450})->mc, 128);
  // A wildly different aspect exceeds the distance bound.
  EXPECT_FALSE(records.lookup_nearest({1, 4096, 2}).has_value());
  // Empty table: nothing to return.
  EXPECT_FALSE(TuningRecords{}.lookup_nearest({64, 64, 64}).has_value());
}

TEST(Records, ConfigFromCandidateBridgesToCore) {
  const Candidate c{24, 48, 12, LoopOrder::kKMN, kernels::Packing::kNone};
  const GemmConfig cfg = config_from_candidate(96, 96, 48, c);
  EXPECT_EQ(cfg.mc, 24);
  EXPECT_EQ(cfg.nc, 48);
  EXPECT_EQ(cfg.kc, 12);
  EXPECT_EQ(cfg.loop_order, LoopOrder::kKMN);
  EXPECT_EQ(cfg.packing, kernels::Packing::kNone);
  // And the resulting plan executes (clamped to the problem).
  Plan plan(96, 96, 48, cfg);
  EXPECT_GT(plan.projected_cycles(), 0.0);
}

TEST(Records, LegacyNineAndTenFieldLinesLoadAsNeon) {
  // Lines written before the backend field existed (9 fields, and 10 with
  // the parallel-strategy field) must load as NEON — the only backend that
  // existed when they were written — and stay invisible to SVE lookups.
  TuningRecords records;
  std::stringstream ss(
      "64 64 64 16 32 16 2 1 10.0\n"
      "32 32 32 8 16 8 0 1 5.0 1\n");
  EXPECT_TRUE(records.load(ss).ok());
  EXPECT_EQ(records.size(), 2u);

  const auto nine = records.lookup({64, 64, 64});  // backend defaults kNeon
  ASSERT_TRUE(nine.has_value());
  EXPECT_EQ(nine->backend, backend::BackendId::kNeon);
  const auto ten = records.lookup({32, 32, 32}, backend::BackendId::kNeon);
  ASSERT_TRUE(ten.has_value());
  EXPECT_EQ(ten->backend, backend::BackendId::kNeon);
  EXPECT_EQ(ten->strategy, ParallelStrategy::kBlocksOnly);

  EXPECT_FALSE(
      records.lookup({64, 64, 64}, backend::BackendId::kSveSim).has_value());
}

TEST(Records, UnknownBackendFieldSkippedNotMisfiled) {
  // A backend id from the future must be skipped like any corrupt field,
  // never silently loaded as some backend that happens to exist today.
  TuningRecords records;
  std::stringstream ss("64 64 64 16 32 16 2 1 10.0 0 7\n");
  TuningRecords::LoadReport report;
  EXPECT_EQ(records.load(ss, &report).code(), StatusCode::kDataLoss);
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(records.size(), 0u);
}

TEST(Records, MixedBackendRecordsCoexistAndRoundTrip) {
  // One shape, three backends: separate slots, all survive save/load, and
  // each lookup resolves strictly within its requested backend.
  TuningRecords records;
  Candidate neon = make_candidate(16);
  Candidate sve = make_candidate(24);
  sve.backend = backend::BackendId::kSveSim;
  Candidate wide = make_candidate(32);
  wide.backend = backend::BackendId::kX86Wide;
  EXPECT_TRUE(records.add({64, 64, 64}, neon, 10.0));
  EXPECT_TRUE(records.add({64, 64, 64}, sve, 4.0));  // not an "improvement"
                                                     // race: distinct keys
  EXPECT_TRUE(records.add({64, 64, 64}, wide, 3.0));
  EXPECT_EQ(records.size(), 3u);

  std::stringstream ss;
  ASSERT_TRUE(records.save(ss).ok());
  TuningRecords loaded;
  ASSERT_TRUE(loaded.load(ss).ok());
  EXPECT_EQ(loaded.size(), 3u);
  const auto got_wide =
      loaded.lookup({64, 64, 64}, backend::BackendId::kX86Wide);
  ASSERT_TRUE(got_wide.has_value());
  EXPECT_EQ(got_wide->mc, 32);

  const auto got_neon = loaded.lookup({64, 64, 64});
  ASSERT_TRUE(got_neon.has_value());
  EXPECT_EQ(got_neon->mc, 16);
  EXPECT_EQ(got_neon->backend, backend::BackendId::kNeon);
  const auto got_sve = loaded.lookup({64, 64, 64}, backend::BackendId::kSveSim);
  ASSERT_TRUE(got_sve.has_value());
  EXPECT_EQ(got_sve->mc, 24);
  EXPECT_EQ(got_sve->backend, backend::BackendId::kSveSim);
  EXPECT_NEAR(loaded.cost({64, 64, 64}, backend::BackendId::kSveSim).value(),
              4.0, 1e-12);
}

TEST(Records, NearestLookupNeverCrossesBackends) {
  TuningRecords records;
  Candidate sve = make_candidate(32);
  sve.backend = backend::BackendId::kSveSim;
  records.add({512, 512, 512}, sve, 20.0);
  records.add({64, 64, 64}, make_candidate(16), 10.0);

  // 480^3 is nearest the SVE record; the same query restricted to NEON
  // must reach past it to the (far) 64^3 NEON record — and since that
  // exceeds the distance bound, come back empty rather than borrow the
  // SVE entry.
  const auto sve_near =
      records.lookup_nearest({480, 480, 480}, 1.0, backend::BackendId::kSveSim);
  ASSERT_TRUE(sve_near.has_value());
  EXPECT_EQ(sve_near->mc, 32);
  EXPECT_FALSE(records.lookup_nearest({480, 480, 480}).has_value());
  // And the NEON record resolves for NEON queries near its own shape.
  EXPECT_EQ(records.lookup_nearest({60, 60, 60})->mc, 16);
}

TEST(Records, ConfigFromCandidateCarriesBackend) {
  Candidate c = make_candidate(16);
  c.backend = backend::BackendId::kSveSim;
  EXPECT_EQ(config_from_candidate(64, 64, 64, c).backend,
            backend::BackendId::kSveSim);
}

TEST(Records, MergeFromKeepsPerKeyMinimum) {
  TuningRecords a, b;
  a.add({8, 8, 8}, make_candidate(4), 500.0);
  a.add({16, 16, 16}, make_candidate(8), 100.0);
  b.add({8, 8, 8}, make_candidate(2), 400.0);     // better: wins the slot
  b.add({16, 16, 16}, make_candidate(64), 150.0);  // worse: ignored
  b.add({32, 32, 32}, make_candidate(16), 50.0);   // new shape: unioned
  a.merge_from(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.lookup({8, 8, 8})->mc, 2);
  EXPECT_EQ(a.cost({8, 8, 8}).value(), 400.0);
  EXPECT_EQ(a.lookup({16, 16, 16})->mc, 8);
  EXPECT_EQ(a.lookup({32, 32, 32})->mc, 16);
}

TEST(Records, SaveFileMergedTwoWritersUnion) {
  // The blind-overwrite regression: two writers sharing one records file
  // (campaign + online tuner) used to last-write-win the whole table.
  // save_file_merged folds the on-disk table in first, per-slot min cost.
  const std::string path = "/tmp/autogemm_records_two_writer_test.txt";
  std::remove(path.c_str());
  TuningRecords writer_a;
  writer_a.add({8, 8, 8}, make_candidate(4), 500.0);
  writer_a.add({16, 16, 16}, make_candidate(8), 100.0);
  ASSERT_TRUE(writer_a.save_file(path).ok());

  TuningRecords writer_b;
  writer_b.add({8, 8, 8}, make_candidate(2), 400.0);    // beats A's
  writer_b.add({32, 32, 32}, make_candidate(16), 50.0);  // A never saw it
  ASSERT_TRUE(writer_b.save_file_merged(path).ok());

  TuningRecords loaded;
  ASSERT_TRUE(loaded.load_file(path).ok());
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.lookup({8, 8, 8})->mc, 2);
  EXPECT_EQ(loaded.lookup({16, 16, 16})->mc, 8);  // A's record survived
  EXPECT_EQ(loaded.lookup({32, 32, 32})->mc, 16);

  // A third writer with a *worse* record for a contested slot loses it.
  TuningRecords writer_c;
  writer_c.add({8, 8, 8}, make_candidate(64), 450.0);
  ASSERT_TRUE(writer_c.save_file_merged(path).ok());
  TuningRecords reloaded;
  ASSERT_TRUE(reloaded.load_file(path).ok());
  EXPECT_EQ(reloaded.lookup({8, 8, 8})->mc, 2);
  EXPECT_EQ(reloaded.cost({8, 8, 8}).value(), 400.0);
  std::remove(path.c_str());
}

TEST(Records, SaveFileMergedCreatesMissingFile) {
  const std::string path = "/tmp/autogemm_records_merge_fresh_test.txt";
  std::remove(path.c_str());
  TuningRecords records;
  records.add({4, 5, 6}, make_candidate(2), 42.0);
  ASSERT_TRUE(records.save_file_merged(path).ok());
  TuningRecords loaded;
  ASSERT_TRUE(loaded.load_file(path).ok());
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());
}

TEST(Records, SaveFileMergedRefusesUnknownVersion) {
  // An unknown on-disk version means the file belongs to a future build:
  // merging would silently destroy records this build cannot parse, so
  // the save refuses and leaves the file byte-identical.
  const std::string path = "/tmp/autogemm_records_merge_version_test.txt";
  const std::string future = "autogemm-records v9\n64 64 64 16 32 16 2 1 10.0\n";
  {
    std::ofstream out(path);
    out << future;
  }
  TuningRecords records;
  records.add({4, 5, 6}, make_candidate(2), 42.0);
  EXPECT_EQ(records.save_file_merged(path).code(),
            StatusCode::kInvalidArgument);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), future);
  std::remove(path.c_str());
}

TEST(Records, SaveFileMergedSalvagesCorruptLines) {
  // A partially corrupt v1 file merges its *valid* records (kDataLoss is
  // a salvage, not a refusal — matching the tolerant loader's posture).
  const std::string path = "/tmp/autogemm_records_merge_salvage_test.txt";
  std::remove(path.c_str());
  TuningRecords good;
  good.add({64, 64, 64}, make_candidate(16), 10.0);
  ASSERT_TRUE(good.save_file(path).ok());
  {
    std::ofstream out(path, std::ios::app);
    out << "garbage line that is not a record\n";
  }
  TuningRecords records;
  records.add({4, 5, 6}, make_candidate(2), 42.0);
  ASSERT_TRUE(records.save_file_merged(path).ok());
  TuningRecords loaded;
  ASSERT_TRUE(loaded.load_file(path).ok());  // rewrite dropped the garbage
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.lookup({64, 64, 64})->mc, 16);
  EXPECT_EQ(loaded.lookup({4, 5, 6})->mc, 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace autogemm::tune
