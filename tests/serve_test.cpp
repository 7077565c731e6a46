// Tests of the serve subsystem (serve/server.hpp) driven over in-process
// socketpairs: the full submit → stream → complete protocol, field-naming
// rejection of malformed specs, per-tenant quota enforcement (realization
// budget clamp + chain-store draining/eviction), mid-sweep cancellation,
// and the headline durability contract — a hard-stopped server restarted on
// the same checkpoint root finishes every job with a row set byte-identical
// to an uninterrupted run's.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "api/spec_json.hpp"
#include "obs/obs.hpp"
#include "serve/checkpoint.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "util/socket.hpp"

namespace api = tcgrid::api;
namespace serve = tcgrid::serve;
namespace util = tcgrid::util;
namespace json = tcgrid::util::json;

namespace {

/// Fresh checkpoint root per test under gtest's temp dir.
std::string fresh_root(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "tcgrid_serve_" + tag + "_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

/// A small sweep: 4 scenarios x `trials` trials x 2 heuristics. RANDOM is
/// estimator-free; IE exercises the chain-statistics store (the quota tests
/// need its bytes to grow).
api::ExperimentSpec tiny_spec(int trials = 2, int wmin_count = 2) {
  api::ExperimentSpec spec;
  spec.grid.ms = {3};
  spec.grid.ncoms = {5};
  spec.grid.wmins.clear();
  for (long w = 1; w <= wmin_count; ++w) spec.grid.wmins.push_back(w);
  spec.grid.scenarios_per_cell = 2;
  spec.grid.p = 8;
  spec.grid.iterations = 5;
  spec.heuristics = {"RANDOM", "IE"};
  spec.trials = trials;
  spec.options.slot_cap = 50'000;
  return spec;
}

/// One client connection served by a dedicated in-process handler thread,
/// exactly as the daemon runs one per accepted socket.
class Client {
 public:
  explicit Client(serve::Server& server) {
    auto [client_end, server_end] = util::stream_socketpair();
    fd_ = std::move(client_end);
    const int sfd = server_end.release();
    handler_ = std::thread([&server, sfd] {
      server.serve_connection(sfd);
      ::close(sfd);
    });
    ch_ = std::make_unique<util::LineChannel>(fd_.get());
  }

  ~Client() {
    fd_.reset();  // EOF unblocks the handler
    if (handler_.joinable()) handler_.join();
  }

  json::Value roundtrip(const std::string& request) {
    EXPECT_TRUE(ch_->write_line(request));
    std::string line;
    EXPECT_TRUE(ch_->read_line(line));
    return json::parse(line);
  }

  /// `results` streaming: returns (rows, end record).
  std::pair<std::vector<std::string>, json::Value> stream_results(
      const std::string& job, std::size_t from = 0, bool wait = true) {
    EXPECT_TRUE(ch_->write_line(serve::results_request(job, from, wait)));
    std::vector<std::string> rows;
    std::string line;
    while (ch_->read_line(line)) {
      const json::Value v = json::parse(line);
      if (const json::Value* type = v.find("type");
          type != nullptr && type->is_string() && type->as_string() == "end") {
        return {std::move(rows), v};
      }
      rows.push_back(line);
    }
    ADD_FAILURE() << "stream ended without an end record";
    return {std::move(rows), json::Value()};
  }

  json::Value submit(const api::ExperimentSpec& spec, const std::string& tenant,
                     const std::string& job = "") {
    return roundtrip(serve::submit_request(tenant, api::spec_to_json(spec), job));
  }

 private:
  util::Fd fd_;
  std::unique_ptr<util::LineChannel> ch_;
  std::thread handler_;
};

bool is_ok(const json::Value& v) {
  const json::Value* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

std::string error_of(const json::Value& v) {
  const json::Value* e = v.find("error");
  return e != nullptr && e->is_string() ? e->as_string() : "";
}

std::vector<std::string> sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(Serve, SubmitStreamComplete) {
  serve::ServerOptions opts;
  opts.root = fresh_root("basic");
  opts.threads = 2;
  serve::Server server(opts);
  Client client(server);

  const api::ExperimentSpec spec = tiny_spec();
  const json::Value ack = client.submit(spec, "alice");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);
  const std::string job = ack.find("job")->as_string();
  const std::size_t units = static_cast<std::size_t>(ack.find("units")->as_uint());
  const std::size_t expected =
      static_cast<std::size_t>(ack.find("rows_expected")->as_uint());
  EXPECT_EQ(units, 8u);       // 4 scenarios x 2 trials
  EXPECT_EQ(expected, 16u);   // x 2 heuristics

  const auto [rows, end] = client.stream_results(job);
  EXPECT_EQ(rows.size(), expected);
  EXPECT_EQ(end.find("state")->as_string(), "done");

  // Every (scenario, trial, heuristic) coordinate exactly once, and every
  // row is well-formed JSON carrying the documented fields.
  std::set<std::string> coords;
  for (const std::string& row : rows) {
    const json::Value v = json::parse(row);
    for (const char* key : {"scenario", "trial", "h", "heuristic", "family", "m",
                            "ncom", "wmin", "scenario_seed", "success", "makespan"}) {
      EXPECT_NE(v.find(key), nullptr) << "row missing " << key << ": " << row;
    }
    coords.insert(json::dump(*v.find("scenario")) + "/" + json::dump(*v.find("trial")) +
                  "/" + json::dump(*v.find("h")));
  }
  EXPECT_EQ(coords.size(), expected);

  // Incremental re-read from an offset returns the tail only.
  const auto [tail, tail_end] = client.stream_results(job, rows.size() - 3);
  EXPECT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail_end.find("rows")->as_uint(), expected);
}

TEST(Serve, RemovedOptionFieldsAreNamedAtTheWire) {
  serve::ServerOptions opts;
  opts.root = fresh_root("batch");
  opts.threads = 1;
  serve::Server server(opts);
  Client client(server);

  // A spec written for a removed knob (the lockstep executor's width, the
  // private chain-store ablation) still carries it; the daemon must name
  // the field instead of running the job.
  const std::vector<std::pair<std::string, std::string>> removed = {
      {"trial_batch", "1"}, {"shared_chain_stats", "false"}};
  for (const auto& [name, value] : removed) {
    std::string text = api::spec_to_json_string(tiny_spec());
    const std::size_t at = text.find("\"fast_forward\":");
    ASSERT_NE(at, std::string::npos);
    text.insert(at, "\"" + name + "\":" + value + ",");
    const json::Value resp =
        client.roundtrip(serve::submit_request("alice", json::parse(text), ""));
    EXPECT_FALSE(is_ok(resp)) << name;
    EXPECT_NE(error_of(resp).find("spec.options." + name + ": unknown field"),
              std::string::npos)
        << error_of(resp);
  }
}

TEST(Serve, MalformedRequestsAndSpecsAreRejectedByName) {
  serve::ServerOptions opts;
  opts.root = fresh_root("reject");
  opts.threads = 1;
  serve::Server server(opts);
  Client client(server);

  // Unknown field, dotted path into options (rename slot_cap in the wire
  // form — the typo'd key must be named, not silently defaulted).
  api::ExperimentSpec spec = tiny_spec();
  std::string text = api::spec_to_json_string(spec);
  const std::size_t at = text.find("\"slot_cap\":");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 11, "\"slot_capp\":");
  json::Value resp = client.roundtrip(serve::submit_request("alice", json::parse(text), ""));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("spec.options.slot_capp"), std::string::npos)
      << error_of(resp);

  // Unregistered heuristic (semantic validation, post-parse).
  spec = tiny_spec();
  spec.heuristics = {"NoSuchHeuristic"};
  resp = client.submit(spec, "alice");
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("NoSuchHeuristic"), std::string::npos);

  // A scenario the library cannot build (the estimator caps p at 64): a
  // worker would die on it mid-sweep, so the front door refuses it.
  spec = tiny_spec();
  spec.grid.p = 65;
  resp = client.submit(spec, "alice");
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("p must be in"), std::string::npos) << error_of(resp);

  // Session-level knobs the daemon pins.
  spec = tiny_spec();
  spec.options.record_trace = true;
  resp = client.submit(spec, "alice");
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("record_trace"), std::string::npos);

  spec = tiny_spec();
  spec.options.eps = 1e-3;
  resp = client.submit(spec, "alice");
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("eps"), std::string::npos);

  // Bad tenant / bad job id / unknown job / non-JSON line.
  resp = client.roundtrip(serve::submit_request("bad tenant!", api::spec_to_json(tiny_spec()), ""));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("tenant"), std::string::npos);

  resp = client.roundtrip(serve::status_request("nope"));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("unknown job"), std::string::npos);

  resp = client.roundtrip("this is not json");
  EXPECT_FALSE(is_ok(resp));

  resp = client.roundtrip(R"({"op": "frobnicate"})");
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("frobnicate"), std::string::npos);

  // A negative offset is an integer but not a valid one; it is named, and
  // the connection stays usable.
  resp = client.roundtrip(R"({"op": "results", "job": "nope", "from": -1})");
  EXPECT_FALSE(is_ok(resp));
  EXPECT_EQ(error_of(resp), "from: expected a non-negative integer");
  resp = client.roundtrip(serve::status_request("nope"));
  EXPECT_NE(error_of(resp).find("unknown job"), std::string::npos);
}

TEST(Serve, TenantQuotasEnforcedAndVisible) {
  serve::ServerOptions opts;
  opts.root = fresh_root("quota");
  opts.threads = 2;
  // "small" gets a chain store bound of 1 byte — every committed unit that
  // grew the store triggers a drain + eviction — and a zero realization
  // budget (all units fall back to live generation).
  opts.tenant_quotas["small"] = serve::TenantQuota{0, 1};
  serve::Server server(opts);
  Client client(server);

  const api::ExperimentSpec spec = tiny_spec();
  const json::Value ack_small = client.submit(spec, "small");
  const json::Value ack_big = client.submit(spec, "big");
  ASSERT_TRUE(is_ok(ack_small)) << error_of(ack_small);
  ASSERT_TRUE(is_ok(ack_big)) << error_of(ack_big);
  const std::string job_small = ack_small.find("job")->as_string();
  const std::string job_big = ack_big.find("job")->as_string();

  const auto [rows_small, end_small] = client.stream_results(job_small);
  const auto [rows_big, end_big] = client.stream_results(job_big);
  EXPECT_EQ(end_small.find("state")->as_string(), "done");
  EXPECT_EQ(end_big.find("state")->as_string(), "done");

  // Quotas trade warmth, never results: both tenants computed the same rows.
  EXPECT_EQ(sorted(rows_small), sorted(rows_big));

  // The starved tenant was evicted at least once; the default tenant never.
  EXPECT_GT(server.tenant_evictions("small"), 0u);
  EXPECT_EQ(server.tenant_evictions("big"), 0u);

  // Per-tenant accounting is visible over the wire.
  const json::Value counters = client.roundtrip(serve::counters_request());
  ASSERT_TRUE(is_ok(counters));
  const json::Value* tenants = counters.find("tenants");
  ASSERT_NE(tenants, nullptr);
  const json::Value* small = tenants->find("small");
  const json::Value* big = tenants->find("big");
  ASSERT_NE(small, nullptr);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(small->find("quota")->find("chain_store_bytes")->as_uint(), 1u);
  EXPECT_EQ(small->find("quota")->find("realization_budget")->as_uint(), 0u);
  EXPECT_GT(small->find("evictions")->as_uint(), 0u);
  EXPECT_EQ(small->find("units_done")->as_uint(), 8u);
  EXPECT_EQ(big->find("units_done")->as_uint(), 8u);
  EXPECT_EQ(big->find("rows")->as_uint(), 16u);
  // The unstarved store retained its chains; bytes are live and positive.
  EXPECT_GT(big->find("chain_store")->find("bytes")->as_uint(), 0u);
}

TEST(Serve, QuotaEvictionThenResubmitIsByteIdentical) {
  // The DRAINING eviction trades warmth, not correctness: a resubmission
  // into the evicted tenant session rebuilds its chain store from scratch
  // and must stream the same rows as the first pass.
  serve::ServerOptions opts;
  opts.root = fresh_root("evict_resubmit");
  opts.threads = 2;
  // 1-byte chain-store bound: every unit that grew the store evicts.
  opts.tenant_quotas["small"] = serve::TenantQuota{64ull << 20, 1};
  serve::Server server(opts);
  Client client(server);

  const api::ExperimentSpec spec = tiny_spec();
  const json::Value ack1 = client.submit(spec, "small");
  ASSERT_TRUE(is_ok(ack1)) << error_of(ack1);
  const auto [rows1, end1] =
      client.stream_results(ack1.find("job")->as_string());
  EXPECT_EQ(end1.find("state")->as_string(), "done");
  EXPECT_GT(server.tenant_evictions("small"), 0u);

  const json::Value ack2 = client.submit(spec, "small");
  ASSERT_TRUE(is_ok(ack2)) << error_of(ack2);
  const auto [rows2, end2] =
      client.stream_results(ack2.find("job")->as_string());
  EXPECT_EQ(end2.find("state")->as_string(), "done");
  EXPECT_EQ(sorted(rows1), sorted(rows2));
}

TEST(Serve, CancelMidSweepReturnsPartialAndSticksAcrossRestart) {
  serve::ServerOptions opts;
  opts.root = fresh_root("cancel");
  opts.threads = 1;  // serialize units so the cancel lands mid-sweep
  auto server = std::make_unique<serve::Server>(opts);
  Client client(*server);

  const api::ExperimentSpec spec = tiny_spec(/*trials=*/4, /*wmin_count=*/3);
  const json::Value ack = client.submit(spec, "alice");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);
  const std::string job = ack.find("job")->as_string();
  const std::size_t units = static_cast<std::size_t>(ack.find("units")->as_uint());
  ASSERT_EQ(units, 24u);

  server->wait_units(job, 1);
  const json::Value resp = client.roundtrip(serve::cancel_request(job));
  ASSERT_TRUE(is_ok(resp)) << error_of(resp);

  const auto status = server->wait_job(job);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "cancelled");
  EXPECT_GE(status->units_done, 1u);
  EXPECT_LT(status->units_done, units);
  // Partial rows stream normally; the end record says cancelled.
  const auto [rows, end] = client.stream_results(job);
  EXPECT_EQ(rows.size(), status->units_done * 2);  // 2 heuristics per unit
  EXPECT_EQ(end.find("state")->as_string(), "cancelled");

  // A cancelled job stays cancelled across a daemon restart.
  server.reset();
  serve::Server restarted(opts);
  const auto after = restarted.job_status(job);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->state, "cancelled");
}

TEST(Serve, HardStopResumeMatchesUninterruptedRun) {
  const api::ExperimentSpec spec = tiny_spec(/*trials=*/4, /*wmin_count=*/3);

  // Reference: one uninterrupted run.
  std::vector<std::string> reference;
  {
    serve::ServerOptions opts;
    opts.root = fresh_root("ref");
    opts.threads = 2;
    serve::Server server(opts);
    Client client(server);
    const json::Value ack = client.submit(spec, "alice", "sweep");
    ASSERT_TRUE(is_ok(ack)) << error_of(ack);
    reference = sorted(client.stream_results("sweep").first);
    ASSERT_EQ(reference.size(), 48u);
  }

  // Interrupted: hard-stop (kill -9 semantics: in-flight units abandoned,
  // nothing uncommitted becomes durable) after a couple of units, restart
  // on the same root, let the resumed job finish.
  serve::ServerOptions opts;
  opts.root = fresh_root("resume");
  opts.threads = 2;
  std::vector<std::string> streamed_before_kill;
  {
    auto server = std::make_unique<serve::Server>(opts);
    Client client(*server);
    const json::Value ack = client.submit(spec, "alice", "sweep");
    ASSERT_TRUE(is_ok(ack)) << error_of(ack);
    server->wait_units("sweep", 2);
    // Whatever has streamed so far is part of the cross-lifetime union.
    streamed_before_kill = client.stream_results("sweep", 0, /*wait=*/false).first;
    server->hard_stop();
  }

  serve::Server restarted(opts);
  const auto at_restart = restarted.job_status("sweep");
  ASSERT_TRUE(at_restart.has_value());
  EXPECT_GE(at_restart->units_done, 2u);
  EXPECT_LT(at_restart->units_done, 24u) << "job finished before the kill; "
                                            "nothing was actually resumed";

  Client client(restarted);
  const auto [rows_after, end] = client.stream_results("sweep");
  EXPECT_EQ(end.find("state")->as_string(), "done");

  // In-memory publication order equals rows.jsonl commit order — `results
  // --from=N` offsets must index the same sequence before and after a
  // restart, and the restart rebuilds job->rows in file order.
  std::vector<std::string> file_rows;
  {
    std::ifstream in(opts.root + "/sweep/rows.jsonl");
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) file_rows.push_back(line);
    }
  }
  EXPECT_EQ(rows_after, file_rows);

  // Union of everything streamed across both daemon lifetimes, deduped
  // (the restart re-streams committed rows), sorted: byte-identical to the
  // uninterrupted run.
  std::vector<std::string> all = streamed_before_kill;
  all.insert(all.end(), rows_after.begin(), rows_after.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  EXPECT_EQ(all, reference);
}

TEST(Serve, CheckpointFiltersTornAndUncommittedRows) {
  const std::string root = fresh_root("torn");
  {
    serve::JobCheckpoint ckpt(root, "job");
    ckpt.write_manifest(R"({"job":"job"})");
    ckpt.commit_unit(3, {R"({"scenario":1,"trial":1,"x":1})",
                         R"({"scenario":1,"trial":1,"x":2})"});
  }
  // Simulate a kill between the rows fsync and the units.log append: valid
  // rows whose unit never committed, plus torn tails in both files.
  {
    std::ofstream rows(root + "/job/rows.jsonl", std::ios::app);
    rows << R"({"scenario":0,"trial":1,"x":3})" << "\n";  // unit 1: uncommitted
    rows << R"({"scenario":2,"trial)";                    // torn mid-row
  }
  {
    // Torn commit record: a prefix of "41 ok\n". Without the " ok" suffix
    // check this would read as committed unit 4 — whose rows are absent —
    // and the resumed job would silently lose them.
    std::ofstream units(root + "/job/units.log", std::ios::app);
    units << "4";
  }

  serve::JobCheckpoint reload(root, "job");
  const auto loaded = reload.load_rows(/*trials=*/2);
  ASSERT_EQ(loaded.completed_units.size(), 1u);
  EXPECT_EQ(loaded.completed_units[0], 3u);
  ASSERT_EQ(loaded.rows.size(), 2u);
  EXPECT_NE(loaded.rows[0].find("\"x\":1"), std::string::npos);
  EXPECT_NE(loaded.rows[1].find("\"x\":2"), std::string::npos);

  // The rewrite left a clean file: a second load sees the same state.
  serve::JobCheckpoint again(root, "job");
  const auto reloaded = again.load_rows(/*trials=*/2);
  EXPECT_EQ(reloaded.rows, loaded.rows);
}

TEST(Serve, TornUnitsTailCannotMergeWithNextCommit) {
  const std::string root = fresh_root("torntail");
  {
    serve::JobCheckpoint ckpt(root, "job");
    ckpt.write_manifest(R"({"job":"job"})");
    ckpt.commit_unit(3, {R"({"scenario":1,"trial":1,"x":1})"});
  }
  // kill -9 mid-append can tear a commit record down to a bare digit prefix
  // with no newline. units.log is reopened O_APPEND on resume, so without
  // the load-time rewrite this tail would concatenate with the next record
  // ("1" + "1 ok\n" -> "11 ok") and mark never-run unit 11 committed.
  {
    std::ofstream units(root + "/job/units.log", std::ios::app | std::ios::binary);
    units << "1";
  }
  {
    serve::JobCheckpoint ckpt(root, "job");
    const auto loaded = ckpt.load_rows(/*trials=*/2);
    EXPECT_EQ(loaded.completed_units, std::vector<std::size_t>{3});
    ckpt.commit_unit(1, {R"({"scenario":0,"trial":1,"x":2})"});
  }
  serve::JobCheckpoint again(root, "job");
  const auto reloaded = again.load_rows(/*trials=*/2);
  const std::set<std::size_t> committed(reloaded.completed_units.begin(),
                                        reloaded.completed_units.end());
  EXPECT_EQ(committed, (std::set<std::size_t>{1, 3}));
  EXPECT_EQ(reloaded.rows.size(), 2u);
}

TEST(Serve, StaleOnDiskDirectoriesAreNotReused) {
  serve::ServerOptions opts;
  opts.root = fresh_root("stale");
  opts.threads = 1;
  // Two leftovers a fresh daemon cannot load: a corrupt manifest (listed at
  // startup, skipped) and an orphaned units.log with no manifest at all.
  // Both hold committed-unit state that must never merge into a new job.
  std::filesystem::create_directories(opts.root + "/stale");
  std::filesystem::create_directories(opts.root + "/job-1");
  {
    std::ofstream manifest(opts.root + "/stale/manifest.json");
    manifest << "not json";
    std::ofstream units(opts.root + "/stale/units.log");
    units << "0 ok\n";
    std::ofstream orphan(opts.root + "/job-1/units.log");
    orphan << "0 ok\n";
  }
  serve::Server server(opts);
  Client client(server);

  const json::Value rejected = client.submit(tiny_spec(), "alice", "stale");
  EXPECT_FALSE(is_ok(rejected));
  EXPECT_NE(error_of(rejected).find("already exists"), std::string::npos)
      << error_of(rejected);

  // Generated ids skip over on-disk leftovers too.
  const json::Value ack = client.submit(tiny_spec(), "alice");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);
  EXPECT_NE(ack.find("job")->as_string(), "job-1");
  const auto [rows, end] = client.stream_results(ack.find("job")->as_string());
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(rows.size(), 16u);
}

TEST(Serve, DuplicateJobIdsAreRejected) {
  serve::ServerOptions opts;
  opts.root = fresh_root("dup");
  opts.threads = 1;
  serve::Server server(opts);
  Client client(server);

  const json::Value first = client.submit(tiny_spec(), "alice", "myjob");
  ASSERT_TRUE(is_ok(first)) << error_of(first);
  const json::Value second = client.submit(tiny_spec(), "alice", "myjob");
  EXPECT_FALSE(is_ok(second));
  EXPECT_NE(error_of(second).find("already exists"), std::string::npos);
}

TEST(Serve, MetricsVerbReportsPerTenantSeries) {
  // The metrics verb is the acceptance surface of the obs layer: two
  // tenants run a full sweep each, and the scrape must carry per-tenant
  // unit-service histograms with EXACT unit counts plus the fleet gauges
  // and checkpoint fsync series the CI smoke asserts on.
  tcgrid::obs::configure({.enabled = true});
  tcgrid::obs::Registry::instance().reset_values();

  serve::ServerOptions opts;
  opts.root = fresh_root("metrics");
  opts.threads = 2;
  {
    serve::Server server(opts);
    Client client(server);

    const api::ExperimentSpec spec = tiny_spec();  // 8 units per job
    const json::Value ack_a = client.submit(spec, "ten-a");
    ASSERT_TRUE(is_ok(ack_a)) << error_of(ack_a);
    const json::Value ack_b = client.submit(spec, "ten-b");
    ASSERT_TRUE(is_ok(ack_b)) << error_of(ack_b);
    ASSERT_TRUE(server.wait_job(ack_a.find("job")->as_string()).has_value());
    ASSERT_TRUE(server.wait_job(ack_b.find("job")->as_string()).has_value());
    // Pop every row so the stream-latency series gets populated too.
    const auto [rows_a, end_a] = client.stream_results(ack_a.find("job")->as_string());
    EXPECT_EQ(rows_a.size(), 16u);

    const json::Value resp = client.roundtrip(serve::metrics_request());
    ASSERT_TRUE(is_ok(resp)) << error_of(resp);
    EXPECT_EQ(resp.find("type")->as_string(), "metrics");
    EXPECT_TRUE(resp.find("enabled")->as_bool());
    const json::Value* metrics = resp.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->is_array());

    const auto find_metric = [&](const std::string& name,
                                 const std::string& tenant) -> const json::Value* {
      for (const json::Value& m : metrics->as_array()) {
        if (m.find("name")->as_string() != name) continue;
        const json::Value* labels = m.find("labels");
        const json::Value* t = labels != nullptr ? labels->find("tenant") : nullptr;
        if (tenant.empty() && (t == nullptr)) return &m;
        if (t != nullptr && t->as_string() == tenant) return &m;
      }
      return nullptr;
    };

    // Per-tenant unit service histograms: exactly 8 observed units each.
    for (const char* tenant : {"ten-a", "ten-b"}) {
      const json::Value* h = find_metric("tcgrid_serve_unit_service_us", tenant);
      ASSERT_NE(h, nullptr) << "no unit_service series for " << tenant;
      EXPECT_EQ(h->find("kind")->as_string(), "histogram");
      EXPECT_EQ(h->find("count")->as_uint(), 8u) << tenant;
    }
    // Stream latency: ten-a's 16 rows were popped above; ten-b's were not.
    const json::Value* lat =
        find_metric("tcgrid_serve_results_stream_latency_us", "ten-a");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->find("count")->as_uint(), 16u);
    // Fleet gauges exist and read an idle fleet.
    const json::Value* depth = find_metric("tcgrid_serve_queue_depth", "");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->find("kind")->as_string(), "gauge");
    EXPECT_EQ(depth->find("value")->as_int(), 0);
    const json::Value* inflight = find_metric("tcgrid_serve_inflight_units", "");
    ASSERT_NE(inflight, nullptr);
    EXPECT_EQ(inflight->find("value")->as_int(), 0);
    // Checkpoint durability: 2 fsyncs per committed unit, 16 units total.
    const json::Value* fsync = find_metric("tcgrid_serve_checkpoint_fsync_us", "");
    ASSERT_NE(fsync, nullptr);
    EXPECT_EQ(fsync->find("count")->as_uint(), 32u);

    // Prometheus form carries the same series as text exposition.
    const json::Value prom = client.roundtrip(serve::metrics_request("prometheus"));
    ASSERT_TRUE(is_ok(prom)) << error_of(prom);
    const std::string text = prom.find("prometheus")->as_string();
    EXPECT_NE(text.find("# TYPE tcgrid_serve_unit_service_us histogram"),
              std::string::npos);
    EXPECT_NE(text.find("tcgrid_serve_unit_service_us_count{tenant=\"ten-a\"} 8"),
              std::string::npos);
    EXPECT_NE(text.find("tcgrid_serve_unit_service_us_count{tenant=\"ten-b\"} 8"),
              std::string::npos);
    EXPECT_NE(text.find("tcgrid_serve_queue_depth 0"), std::string::npos);
    EXPECT_NE(text.find("tcgrid_serve_busy_workers 0"), std::string::npos);
    // The availability kernel the units ran with, as an info gauge.
    const std::string kernel_info = "tcgrid_avail_kernel_info{kernel=\"" +
                                    std::string(util::to_string(util::simd_kernel())) +
                                    "\"} 1";
    EXPECT_NE(text.find(kernel_info), std::string::npos) << kernel_info;

    // Bad format names the field.
    const json::Value bad = client.roundtrip(serve::metrics_request("xml"));
    EXPECT_FALSE(is_ok(bad));
    EXPECT_NE(error_of(bad).find("format"), std::string::npos);
  }
  tcgrid::obs::configure({});
}

}  // namespace
