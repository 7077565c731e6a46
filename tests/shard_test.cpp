// Tests of coordinator-mode serving (serve/shard.hpp, DESIGN.md §15): the
// shard verbs on a stock daemon (register / heartbeat / lease streaming,
// and the no-checkpoint contract for leased units), the coordinator's
// merge — byte-identical to a single-process run, with the merged commit
// order equal to rows.jsonl order so `results --from=N` offsets stay
// stable — exactly-once commit when an expired (stale) lease completes,
// lease expiry + re-dispatch when a shard dies mid-job, and coordinator
// restart resuming a sharded job on the same checkpoint root.
//
// Shards here are real in-process Servers behind real unix listen sockets
// — the coordinator's fleet connects through the same connect_address path
// the daemon uses, so the full transport (framing, self-contained lease
// requests, row streaming, fd shutdown on death) is exercised, not a mock.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/spec_json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace api = tcgrid::api;
namespace serve = tcgrid::serve;
namespace util = tcgrid::util;
namespace json = tcgrid::util::json;

namespace {

std::string fresh_root(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "tcgrid_shard_" + tag + "_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  return root;
}

/// Same shape as serve_test's tiny sweep: (2 * wmin_count) scenarios x
/// `trials` trials x 2 heuristics, 2 rows per unit.
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

/// An in-process daemon behind a real unix listen socket — what a shard (or
/// a coordinator reached over its socket) is in production. kill() has hard
/// kill -9 semantics for everything in flight: connections die, nothing
/// uncommitted survives, and the socket starts refusing connects.
struct Daemon {
  Daemon(const serve::ServerOptions& opts, std::string socket_path)
      : socket(std::move(socket_path)),
        server(std::make_unique<serve::Server>(opts)),
        listen_fd(util::listen_unix(socket)) {
    acceptor = std::thread([this] { server->serve(listen_fd.get()); });
  }
  ~Daemon() { kill(); }

  void kill() {
    if (server == nullptr) return;
    server->hard_stop();
    acceptor.join();
    listen_fd.reset();  // connects now fail: the death is visible, not hung
    server.reset();
  }

  std::string socket;
  std::unique_ptr<serve::Server> server;
  util::Fd listen_fd;
  std::thread acceptor;
};

/// One client connection over the daemon's real socket.
class Client {
 public:
  explicit Client(const std::string& socket_path)
      : fd_(util::connect_address(socket_path)), ch_(fd_.get()) {}

  json::Value roundtrip(const std::string& request) {
    EXPECT_TRUE(ch_.write_line(request));
    std::string line;
    EXPECT_TRUE(ch_.read_line(line));
    return json::parse(line);
  }

  std::pair<std::vector<std::string>, json::Value> stream_results(
      const std::string& job, std::size_t from = 0, bool wait = true) {
    EXPECT_TRUE(ch_.write_line(serve::results_request(job, from, wait)));
    std::vector<std::string> rows;
    std::string line;
    while (ch_.read_line(line)) {
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

  /// Drive the lease verb by hand: returns unit -> raw row lines. Fails the
  /// test on anything but clean unit streams + lease_done.
  std::map<std::size_t, std::vector<std::string>> lease(
      const std::string& tenant, const std::vector<std::size_t>& units,
      const std::string& spec_json) {
    EXPECT_TRUE(ch_.write_line(serve::lease_request(tenant, units, spec_json)));
    std::map<std::size_t, std::vector<std::string>> out;
    std::string line;
    while (ch_.read_line(line)) {
      const json::Value v = json::parse(line);
      const json::Value* type = v.find("type");
      const std::string kind =
          type != nullptr && type->is_string() ? type->as_string() : "";
      if (kind == "lease_done") return out;
      if (kind != "unit") {
        ADD_FAILURE() << "unexpected lease response: " << line;
        return out;
      }
      const std::size_t unit = static_cast<std::size_t>(v.find("unit")->as_uint());
      const std::size_t n = static_cast<std::size_t>(v.find("rows")->as_uint());
      std::vector<std::string> rows;
      for (std::size_t i = 0; i < n; ++i) {
        std::string row;
        EXPECT_TRUE(ch_.read_line(row));
        rows.push_back(std::move(row));
      }
      out.emplace(unit, std::move(rows));
    }
    ADD_FAILURE() << "lease stream ended without lease_done";
    return out;
  }

 private:
  util::Fd fd_;
  util::LineChannel ch_;
};

/// A scripted shard on a real unix socket: it answers `register` (one
/// slot, the default eps) and `heartbeat` like a stock daemon, and every
/// `lease` with the single line `on_lease` returns. It reaches the
/// coordinator's failure paths, which a stock daemon reaches only on a unit
/// that throws or a spec it refuses.
class FakeShard {
 public:
  FakeShard(std::string socket_path, std::function<std::string(const json::Value&)> on_lease)
      : socket(std::move(socket_path)),
        on_lease_(std::move(on_lease)),
        listen_fd_(util::listen_unix(socket)) {
    acceptor_ = std::thread([this] { accept_loop(); });
  }
  ~FakeShard() {
    stopping_ = true;
    acceptor_.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const util::Fd& fd : conn_fds_) ::shutdown(fd.get(), SHUT_RDWR);
    }
    for (std::thread& t : conn_threads_) t.join();
  }
  FakeShard(const FakeShard&) = delete;
  FakeShard& operator=(const FakeShard&) = delete;

  const std::string socket;

 private:
  void accept_loop() {
    while (!stopping_) {
      pollfd pfd{listen_fd_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      util::Fd conn = util::accept_connection(listen_fd_.get());
      if (!conn.valid()) continue;
      const int fd = conn.get();
      std::lock_guard<std::mutex> lock(mu_);
      conn_fds_.push_back(std::move(conn));
      conn_threads_.emplace_back([this, fd] { serve(fd); });
    }
  }

  void serve(int fd) {
    util::LineChannel ch(fd);
    std::string line;
    while (ch.read_line(line)) {
      const json::Value req = json::parse(line);
      const std::string op = req.find("op")->as_string();
      std::string reply;
      if (op == "register") {
        reply = json::dump(json::Object{{"ok", true},
                                        {"type", "registered"},
                                        {"threads", 1ull},
                                        {"eps", serve::ServerOptions{}.eps},
                                        {"coordinator", false}});
      } else if (op == "heartbeat") {
        reply = json::dump(json::Object{{"ok", true}, {"type", "pong"}});
      } else {
        reply = on_lease_(req);
      }
      if (!ch.write_line(reply)) return;
    }
  }

  std::function<std::string(const json::Value&)> on_lease_;
  util::Fd listen_fd_;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;  ///< conn_fds_, conn_threads_
  std::vector<util::Fd> conn_fds_;
  std::vector<std::thread> conn_threads_;
  std::thread acceptor_;
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

std::vector<std::string> file_rows(const std::string& path) {
  std::vector<std::string> rows;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

/// Single-process reference run of `spec`: the byte-set every sharded
/// arrangement must reproduce.
std::vector<std::string> reference_rows(const api::ExperimentSpec& spec,
                                        const std::string& tag) {
  serve::ServerOptions opts;
  opts.root = fresh_root(tag);
  opts.threads = 2;
  Daemon daemon(opts, fresh_root(tag + "_sock") + ".sock");
  Client client(daemon.socket);
  const json::Value ack = client.submit(spec, "alice", "ref");
  EXPECT_TRUE(is_ok(ack)) << error_of(ack);
  return sorted(client.stream_results("ref").first);
}

serve::ServerOptions shard_opts(const std::string& tag) {
  serve::ServerOptions opts;
  opts.root = fresh_root(tag);
  opts.threads = 2;
  return opts;
}

serve::ServerOptions coordinator_opts(const std::string& tag,
                                      std::vector<std::string> shards) {
  serve::ServerOptions opts;
  opts.root = fresh_root(tag);
  opts.coordinator = true;
  opts.shard.shards = std::move(shards);
  opts.shard.heartbeat_interval_ms = 100;
  opts.shard.heartbeat_timeout_ms = 500;
  return opts;
}

TEST(Shard, StockServerSpeaksTheShardVerbs) {
  serve::ServerOptions opts = shard_opts("verbs");
  Daemon shard(opts, fresh_root("verbs_sock") + ".sock");
  Client client(shard.socket);

  // register: the slot-sizing handshake (no "shard" field = not a
  // fleet-join; that form needs a coordinator and is rejected here).
  json::Value resp = client.roundtrip(serve::register_request());
  ASSERT_TRUE(is_ok(resp)) << error_of(resp);
  EXPECT_EQ(resp.find("type")->as_string(), "registered");
  EXPECT_EQ(resp.find("threads")->as_uint(), 2u);
  EXPECT_FALSE(resp.find("coordinator")->as_bool());

  resp = client.roundtrip(serve::register_request("unix:/nowhere.sock"));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("coordinator"), std::string::npos) << error_of(resp);

  resp = client.roundtrip(serve::heartbeat_request());
  ASSERT_TRUE(is_ok(resp)) << error_of(resp);
  EXPECT_EQ(resp.find("type")->as_string(), "pong");

  // Every lease is self-contained: one without a spec is rejected.
  const api::ExperimentSpec spec = tiny_spec();
  resp = client.roundtrip(json::dump(json::Object{
      {"op", "lease"}, {"tenant", "alice"}, {"units", json::Array{0ull}}}));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_EQ(error_of(resp), "spec: required");

  // With the spec attached, every leased unit streams its rows — and the
  // full lease reproduces exactly the rows a local submit of the same spec
  // computes, because both are the same pure function of (spec, unit).
  const std::string spec_json = json::dump(api::spec_to_json(spec));
  const std::size_t units = spec.unit_count();
  ASSERT_EQ(units, 8u);
  std::vector<std::size_t> all_units(units);
  for (std::size_t u = 0; u < units; ++u) all_units[u] = u;
  const auto leased = client.lease("alice", all_units, spec_json);
  ASSERT_EQ(leased.size(), units);
  std::vector<std::string> lease_rows;
  for (const auto& [unit, rows] : leased) {
    EXPECT_EQ(rows.size(), 2u) << "unit " << unit;  // 2 heuristics
    lease_rows.insert(lease_rows.end(), rows.begin(), rows.end());
  }
  // A follow-up lease on the same connection is independent of the first
  // and reproduces the same bytes.
  const auto again = client.lease("alice", {0}, spec_json);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again.at(0), leased.at(0));

  const json::Value ack = client.submit(spec, "alice", "local");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);
  const auto [local_rows, end] = client.stream_results("local");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(sorted(lease_rows), sorted(local_rows));

  // Leased units are the coordinator's to checkpoint, never the shard's:
  // the only job directory under the shard's root is the local submit's.
  std::vector<std::string> job_dirs;
  for (const auto& entry : std::filesystem::directory_iterator(opts.root)) {
    job_dirs.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(job_dirs, std::vector<std::string>{"local"});

  // Out-of-range unit ids are named at the wire, negative ones included.
  resp = client.roundtrip(serve::lease_request("alice", {units}, spec_json));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("out of range"), std::string::npos) << error_of(resp);
  resp = client.roundtrip(json::dump(json::Object{{"op", "lease"},
                                                  {"tenant", "alice"},
                                                  {"units", json::Array{-1ll}},
                                                  {"spec", json::parse(spec_json)}}));
  EXPECT_FALSE(is_ok(resp));
  EXPECT_NE(error_of(resp).find("units: unit id out of range"), std::string::npos)
      << error_of(resp);
  resp = client.roundtrip(serve::heartbeat_request());
  EXPECT_TRUE(is_ok(resp)) << error_of(resp);
}

TEST(Shard, CoordinatorMergesByteIdenticalToSingleProcess) {
  const api::ExperimentSpec spec = tiny_spec(/*trials=*/4, /*wmin_count=*/3);
  const std::vector<std::string> reference = reference_rows(spec, "merge_ref");
  ASSERT_EQ(reference.size(), 48u);

  Daemon shard1(shard_opts("merge_s1"), fresh_root("merge_s1_sock") + ".sock");
  Daemon shard2(shard_opts("merge_s2"), fresh_root("merge_s2_sock") + ".sock");
  serve::ServerOptions copts =
      coordinator_opts("merge_coord", {shard1.socket, shard2.socket});
  Daemon coord(copts, fresh_root("merge_coord_sock") + ".sock");
  Client client(coord.socket);

  const json::Value ack = client.submit(spec, "alice", "sweep");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);
  const auto [rows, end] = client.stream_results("sweep");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(sorted(rows), reference);

  // The merge layer preserves the §11 offset invariant: the streamed
  // (in-memory) order IS the rows.jsonl commit order, so `results --from=N`
  // indexes one well-defined sequence.
  EXPECT_EQ(rows, file_rows(copts.root + "/sweep/rows.jsonl"));

  // With no shard death every unit is leased exactly once and no commit is
  // a duplicate: one lease per unit, and nothing expired.
  serve::ShardFleet& fleet = *coord.server->shard_fleet();
  const serve::ShardFleet::Counters c = fleet.counters();
  EXPECT_EQ(c.shards, 2u);
  EXPECT_EQ(c.leased_units, spec.unit_count());
  EXPECT_EQ(c.duplicate_commits, 0u);
  EXPECT_EQ(c.redispatched_units, 0u);

  // A slot resolves its lease just after the commit that completes the job,
  // so the per-shard lease counts may trail the job's done state briefly.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto all_resolved = [&] {
    for (const auto& [address, n] : fleet.counters().inflight_leases) {
      if (n != 0) return false;
    }
    return true;
  };
  while (!all_resolved()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "a shard kept a lease";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The counters verb exposes the coordinator block, per-shard in-flight
  // leases included.
  const json::Value counters = client.roundtrip(serve::counters_request());
  ASSERT_TRUE(is_ok(counters));
  const json::Value* coord_block = counters.find("coordinator");
  ASSERT_NE(coord_block, nullptr);
  EXPECT_EQ(coord_block->find("shards")->as_uint(), 2u);
  EXPECT_EQ(coord_block->find("leased_units")->as_uint(), spec.unit_count());
  EXPECT_EQ(coord_block->find("duplicate_commits")->as_uint(), 0u);
  const json::Value* inflight_leases = coord_block->find("inflight_leases");
  ASSERT_NE(inflight_leases, nullptr);
  ASSERT_EQ(inflight_leases->as_object().size(), 2u);
  for (const std::string& address : {shard1.socket, shard2.socket}) {
    const json::Value* n = inflight_leases->find(address);
    ASSERT_NE(n, nullptr) << address;
    EXPECT_EQ(n->as_uint(), 0u) << address;
  }

  // The coordinator's accounting returns to zero: every claim resolved, no
  // local worker exists to be busy, and the tenant saw each unit once.
  const json::Value* fleet_block = counters.find("fleet");
  ASSERT_NE(fleet_block, nullptr);
  EXPECT_EQ(fleet_block->find("inflight_units")->as_uint(), 0u);
  EXPECT_EQ(fleet_block->find("busy_workers")->as_uint(), 0u);
  const json::Value* alice = counters.find("tenants")->find("alice");
  ASSERT_NE(alice, nullptr);
  EXPECT_EQ(alice->find("inflight")->as_uint(), 0u);
  EXPECT_EQ(alice->find("units_done")->as_uint(), spec.unit_count());
}

/// Rows of every unit of `spec`, computed by a stock daemon through the
/// lease verb — the same bytes any shard would stream.
std::map<std::size_t, std::vector<std::string>> unit_rows(const api::ExperimentSpec& spec,
                                                          const std::string& tag) {
  Daemon shard(shard_opts(tag), fresh_root(tag + "_sock") + ".sock");
  Client client(shard.socket);
  std::vector<std::size_t> all_units(spec.unit_count());
  for (std::size_t u = 0; u < all_units.size(); ++u) all_units[u] = u;
  return client.lease("alice", all_units, json::dump(api::spec_to_json(spec)));
}

TEST(Shard, DuplicateLeaseCompletionCommitsExactlyOnce) {
  // Drive the dispatch surface directly: claim every unit, expire one lease
  // (return_lease) and re-claim its unit, then complete BOTH leases with
  // the same rows. The fresh lease commits; the stale one reports Duplicate
  // and the checkpoint holds each row once.
  const api::ExperimentSpec spec = tiny_spec();  // 8 units
  const std::size_t units = spec.unit_count();
  const auto rows_of = unit_rows(spec, "dup_rows");
  ASSERT_EQ(rows_of.size(), units);

  serve::ServerOptions copts = coordinator_opts("dup_coord", {});
  Daemon coord(copts, fresh_root("dup_coord_sock") + ".sock");
  Client client(coord.socket);
  const json::Value ack = client.submit(spec, "alice", "sweep");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);

  // No shards are attached, so these claims are the only dispatch path.
  std::vector<serve::Server::Lease> leases;
  for (std::size_t i = 0; i < units; ++i) {
    auto lease = coord.server->claim_for_dispatch();
    ASSERT_TRUE(lease.has_value());
    leases.push_back(std::move(*lease));
  }

  const serve::Server::Lease stale = leases.back();
  coord.server->return_lease(stale);
  auto fresh = coord.server->claim_for_dispatch();
  ASSERT_TRUE(fresh.has_value());
  ASSERT_EQ(fresh->unit, stale.unit);

  EXPECT_EQ(coord.server->commit_unit(*fresh, rows_of.at(fresh->unit), 0),
            serve::Server::Commit::Committed);
  EXPECT_EQ(coord.server->commit_unit(stale, rows_of.at(stale.unit), 0),
            serve::Server::Commit::Duplicate);
  leases.pop_back();
  for (const auto& lease : leases) {
    EXPECT_EQ(coord.server->commit_unit(lease, rows_of.at(lease.unit), 0),
              serve::Server::Commit::Committed);
  }

  const auto status = coord.server->wait_job("sweep");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "done");
  const auto [rows, end] = client.stream_results("sweep");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(rows.size(), units * 2);
  // Every row exactly once — in memory and in the checkpoint.
  std::set<std::string> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), rows.size());
  EXPECT_EQ(rows, file_rows(copts.root + "/sweep/rows.jsonl"));

  // A return after completion is a no-op, not a resurrection.
  coord.server->return_lease(leases.front());
  EXPECT_EQ(coord.server->job_status("sweep")->state, "done");
}

TEST(Shard, StaleLeaseCommitAfterReturnIsRefused) {
  // A lease committed after return_lease put its unit back to pending must
  // write nothing and must not decrement the in-flight counts a second
  // time; the unit reruns under a fresh claim.
  const api::ExperimentSpec spec = tiny_spec();  // 8 units
  const std::size_t units = spec.unit_count();
  const auto rows_of = unit_rows(spec, "stale_rows");
  ASSERT_EQ(rows_of.size(), units);

  serve::ServerOptions copts = coordinator_opts("stale_coord", {});
  Daemon coord(copts, fresh_root("stale_coord_sock") + ".sock");
  Client client(coord.socket);
  const json::Value ack = client.submit(spec, "alice", "sweep");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);

  auto stale = coord.server->claim_for_dispatch();
  ASSERT_TRUE(stale.has_value());
  coord.server->return_lease(*stale);
  EXPECT_EQ(coord.server->commit_unit(*stale, rows_of.at(stale->unit), 0),
            serve::Server::Commit::Duplicate);

  // Fatal: a committed stale unit would leave the claim loop below waiting
  // for a pending unit that no longer exists.
  ASSERT_EQ(coord.server->job_status("sweep")->units_done, 0u);
  EXPECT_EQ(client.stream_results("sweep", 0, /*wait=*/false).first.size(), 0u);
  const json::Value counters = client.roundtrip(serve::counters_request());
  ASSERT_TRUE(is_ok(counters)) << error_of(counters);
  EXPECT_EQ(counters.find("fleet")->find("inflight_units")->as_uint(), 0u);
  EXPECT_EQ(counters.find("fleet")->find("queue_depth")->as_uint(), units);
  EXPECT_EQ(counters.find("tenants")->find("alice")->find("inflight")->as_uint(), 0u);

  // The job still completes, through fresh claims of every unit.
  for (std::size_t i = 0; i < units; ++i) {
    auto lease = coord.server->claim_for_dispatch();
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(coord.server->commit_unit(*lease, rows_of.at(lease->unit), 0),
              serve::Server::Commit::Committed);
  }
  const auto status = coord.server->wait_job("sweep");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "done");
  const auto [rows, end] = client.stream_results("sweep");
  EXPECT_EQ(rows.size(), units * 2);
  std::set<std::string> unique(rows.begin(), rows.end());
  EXPECT_EQ(unique.size(), rows.size());
  EXPECT_EQ(rows, file_rows(copts.root + "/sweep/rows.jsonl"));
}

TEST(Shard, ShardFailureFailsTheJobAndReleasesEveryLease) {
  // A unit that fails on its shard, and a lease the shard rejects, each
  // fail the job with the shard's error. The rest of the batch goes back
  // to pending without counting as an expiry, and no lease stays charged
  // to the shard or the tenant. A malformed unit header (a negative unit
  // id, or a row count the unit cannot have) is broken framing: the first
  // batch expires and re-queues, and the re-leased batch then fails.
  enum class Case { FailedUnit, Rejected, NegativeUnit, AbsurdRows };
  for (const Case kase : {Case::FailedUnit, Case::Rejected, Case::NegativeUnit,
                          Case::AbsurdRows}) {
    const std::string tag = kase == Case::FailedUnit     ? "unitfail"
                            : kase == Case::Rejected     ? "reject"
                            : kase == Case::NegativeUnit ? "negunit"
                                                         : "absurdrows";
    SCOPED_TRACE(tag);
    const bool reject = kase == Case::Rejected;
    const bool malformed = kase == Case::NegativeUnit || kase == Case::AbsurdRows;
    std::atomic<int> leases{0};
    FakeShard fake(fresh_root(tag + "_fake_sock") + ".sock", [&](const json::Value& req) {
      if (reject) return json::dump(json::Object{{"ok", false}, {"error", "spec: refused"}});
      const json::Value& last = req.find("units")->as_array().back();
      if (malformed && leases.fetch_add(1) == 0) {
        if (kase == Case::NegativeUnit) {
          return json::dump(json::Object{
              {"ok", true}, {"type", "unit"}, {"unit", -1ll}, {"rows", 2ull}});
        }
        return json::dump(json::Object{
            {"ok", true}, {"type", "unit"}, {"unit", last.as_uint()}, {"rows", ~0ull}});
      }
      // Fail the LAST unit of the batch, so the others are still unresolved.
      return json::dump(json::Object{{"ok", false},
                                     {"type", "unit_failed"},
                                     {"unit", last.as_uint()},
                                     {"error", "unit exploded"}});
    });
    Daemon coord(coordinator_opts(tag + "_coord", {fake.socket}),
                 fresh_root(tag + "_coord_sock") + ".sock");
    Client client(coord.socket);
    ASSERT_TRUE(is_ok(client.submit(tiny_spec(), "alice", "sweep")));

    const auto status = coord.server->wait_job("sweep");
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, "failed");
    EXPECT_EQ(status->error, reject ? "spec: refused" : "unit exploded");
    EXPECT_EQ(status->units_done, 0u);

    // The slot resolves its leases just after failing the job.
    serve::ShardFleet& fleet = *coord.server->shard_fleet();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (fleet.counters().inflight_leases.at(fake.socket) != 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "the shard kept a lease";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const serve::ShardFleet::Counters c = fleet.counters();
    // One scenario (2 trials) per batch; a malformed reply expires the first.
    EXPECT_EQ(c.leased_units, malformed ? 4u : 2u);
    EXPECT_EQ(c.redispatched_units, malformed ? 2u : 0u);
    EXPECT_EQ(c.duplicate_commits, 0u);
    const json::Value counters = client.roundtrip(serve::counters_request());
    ASSERT_TRUE(is_ok(counters)) << error_of(counters);
    EXPECT_EQ(counters.find("tenants")->find("alice")->find("inflight")->as_uint(), 0u);
  }
}

TEST(Shard, SiblingClaimsStayInsideTheScenario) {
  // Scenario-affine batching: try_claim_sibling hands out the remaining
  // trials of the held lease's scenario — and nothing else — so whole
  // scenarios travel to one shard (their estimator is built once there).
  const api::ExperimentSpec spec = tiny_spec(/*trials=*/4);  // 4 scenarios
  Daemon coord(coordinator_opts("sibling", {}), fresh_root("sibling_sock") + ".sock");
  Client client(coord.socket);
  ASSERT_TRUE(is_ok(client.submit(spec, "alice", "sweep")));

  auto first = coord.server->claim_for_dispatch();
  ASSERT_TRUE(first.has_value());
  const std::size_t scenario = api::unit_scenario(first->unit, spec.trials);

  // Exactly trials-1 siblings, every one from the same scenario.
  std::vector<serve::Server::Lease> held{std::move(*first)};
  for (std::size_t i = 1; i < static_cast<std::size_t>(spec.trials); ++i) {
    auto sib = coord.server->try_claim_sibling(held.back());
    ASSERT_TRUE(sib.has_value()) << "sibling " << i;
    EXPECT_EQ(api::unit_scenario(sib->unit, spec.trials), scenario);
    held.push_back(std::move(*sib));
  }
  // The scenario is exhausted: no fourth sibling, even though other
  // scenarios still have pending units (a fresh claim finds one).
  EXPECT_FALSE(coord.server->try_claim_sibling(held.back()).has_value());
  auto next = coord.server->claim_for_dispatch();
  ASSERT_TRUE(next.has_value());
  EXPECT_NE(api::unit_scenario(next->unit, spec.trials), scenario);

  // Returned leases re-dispatch; the job still runs to completion through
  // the normal surface (no fleet attached, so claims are the only path).
  coord.server->return_lease(*next);
  for (const auto& lease : held) coord.server->return_lease(lease);
  EXPECT_EQ(coord.server->job_status("sweep")->state, "running");
}

TEST(Shard, LeaseWorkOverQuotaDrainsAndStaysByteIdentical) {
  // Leased units go through the same completed-unit accounting as local
  // ones: a tenant whose chain store outgrows its 1-byte bound drains and
  // evicts between leased units, the default tenant never does, and both
  // stream the same bytes.
  serve::ServerOptions opts = shard_opts("lease_quota");
  serve::TenantQuota small;
  small.chain_store_bytes = 1;
  opts.tenant_quotas["small"] = small;
  Daemon shard(opts, fresh_root("lease_quota_sock") + ".sock");
  Client client(shard.socket);

  const api::ExperimentSpec spec = tiny_spec();  // 8 units
  const std::string spec_json = json::dump(api::spec_to_json(spec));
  const std::size_t units = spec.unit_count();
  std::vector<std::size_t> all_units(units);
  for (std::size_t u = 0; u < units; ++u) all_units[u] = u;
  std::map<std::string, std::vector<std::string>> rows;
  for (const std::string tenant : {"small", "big"}) {
    const auto leased = client.lease(tenant, all_units, spec_json);
    ASSERT_EQ(leased.size(), units) << tenant;
    for (const auto& [unit, unit_rows] : leased) {
      rows[tenant].insert(rows[tenant].end(), unit_rows.begin(), unit_rows.end());
    }
  }
  EXPECT_EQ(sorted(rows["small"]), sorted(rows["big"]));
  EXPECT_GT(shard.server->tenant_evictions("small"), 0u);
  EXPECT_EQ(shard.server->tenant_evictions("big"), 0u);

  const json::Value counters = client.roundtrip(serve::counters_request());
  ASSERT_TRUE(is_ok(counters)) << error_of(counters);
  for (const std::string tenant : {"small", "big"}) {
    const json::Value* t = counters.find("tenants")->find(tenant);
    ASSERT_NE(t, nullptr) << tenant;
    EXPECT_EQ(t->find("inflight")->as_uint(), 0u) << tenant;
    EXPECT_EQ(t->find("units_done")->as_uint(), units) << tenant;
  }
}

TEST(Shard, ShardDeathMidJobExpiresLeasesAndStaysByteIdentical) {
  const api::ExperimentSpec spec = tiny_spec(/*trials=*/8, /*wmin_count=*/3);
  const std::vector<std::string> reference = reference_rows(spec, "kill_ref");
  ASSERT_EQ(reference.size(), 96u);

  Daemon shard1(shard_opts("kill_s1"), fresh_root("kill_s1_sock") + ".sock");
  Daemon shard2(shard_opts("kill_s2"), fresh_root("kill_s2_sock") + ".sock");
  // Shard 2 joins only after shard 1 died holding a lease. While shard 1 is
  // alone, units stay pending until it has run the whole job, so wherever
  // the kill lands, shard 1 holds a lease or claims its next one on a dead
  // connection; both expire. Joined before the kill, shard 2 could claim
  // every pending unit while shard 1 finishes its batch, leaving shard 1
  // nothing to lose (one lease per unit: an idle slot never takes a unit
  // another shard holds).
  serve::ServerOptions copts = coordinator_opts("kill_coord", {shard1.socket});
  Daemon coord(copts, fresh_root("kill_coord_sock") + ".sock");
  Client client(coord.socket);
  serve::ShardFleet& fleet = *coord.server->shard_fleet();

  const json::Value ack = client.submit(spec, "alice", "sweep");
  ASSERT_TRUE(is_ok(ack)) << error_of(ack);

  // Kill shard 1 mid-lease: its slot connections die, the coordinator
  // re-queues what it held and the joining shard absorbs the rest.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fleet.counters().inflight_leases.at(shard1.socket) == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "shard 1 never took a lease";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  shard1.kill();
  fleet.add_shard(shard2.socket);

  const auto status = coord.server->wait_job("sweep");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "done") << "job did not survive the shard death";

  const auto [rows, end] = client.stream_results("sweep");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(sorted(rows), reference);
  EXPECT_EQ(rows, file_rows(copts.root + "/sweep/rows.jsonl"));

  EXPECT_GT(fleet.counters().redispatched_units, 0u) << "the kill expired no leases";
}

TEST(Shard, CoordinatorRestartResumesMergedJobWithStableOffsets) {
  const api::ExperimentSpec spec = tiny_spec(/*trials=*/6, /*wmin_count=*/3);
  const std::vector<std::string> reference = reference_rows(spec, "resume_ref");
  ASSERT_EQ(reference.size(), 72u);

  // Shards are stateless and outlive the coordinator: the same pair serves
  // both coordinator lifetimes.
  Daemon shard1(shard_opts("resume_s1"), fresh_root("resume_s1_sock") + ".sock");
  Daemon shard2(shard_opts("resume_s2"), fresh_root("resume_s2_sock") + ".sock");
  serve::ServerOptions copts =
      coordinator_opts("resume_coord", {shard1.socket, shard2.socket});

  std::vector<std::string> before_kill;
  {
    Daemon coord(copts, fresh_root("resume_coord_sock1") + ".sock");
    Client client(coord.socket);
    const json::Value ack = client.submit(spec, "alice", "sweep");
    ASSERT_TRUE(is_ok(ack)) << error_of(ack);
    coord.server->wait_units("sweep", 2);
    before_kill = client.stream_results("sweep", 0, /*wait=*/false).first;
    coord.kill();  // hard stop: in-flight leases die uncommitted
  }

  Daemon coord(copts, fresh_root("resume_coord_sock2") + ".sock");
  const auto at_restart = coord.server->job_status("sweep");
  ASSERT_TRUE(at_restart.has_value());
  EXPECT_GE(at_restart->units_done, 2u);
  EXPECT_LT(at_restart->units_done, 36u)
      << "job finished before the kill; nothing was resumed";
  const auto status = coord.server->wait_job("sweep");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, "done");

  Client client(coord.socket);
  const auto [rows, end] = client.stream_results("sweep");
  EXPECT_EQ(end.find("state")->as_string(), "done");
  EXPECT_EQ(sorted(rows), reference);

  // The offset contract across restarts: the restart rebuilt job->rows in
  // rows.jsonl order, committed-prefix rows kept their indexes, and a
  // --from=N re-read returns exactly the tail of the same sequence.
  EXPECT_EQ(rows, file_rows(copts.root + "/sweep/rows.jsonl"));
  ASSERT_GE(before_kill.size(), 1u);
  EXPECT_TRUE(std::equal(before_kill.begin(), before_kill.end(), rows.begin()))
      << "committed prefix changed order across the restart";
  const auto [tail, tail_end] = client.stream_results("sweep", rows.size() - 5);
  EXPECT_EQ(tail, std::vector<std::string>(rows.end() - 5, rows.end()));
  EXPECT_EQ(tail_end.find("rows")->as_uint(), rows.size());
}

}  // namespace
