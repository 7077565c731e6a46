// tcgrid_serve — the sweep-as-a-service daemon (DESIGN.md §11).
//
// Listens on a unix-domain socket and speaks the newline-delimited-JSON
// serve protocol: submit / status / results / cancel / counters. Jobs are
// checkpointed under --root; restarting the daemon with the same root
// resumes every incomplete job where it stopped.
//
// Usage:
//   tcgrid_serve --socket /tmp/tcgrid.sock --root /var/lib/tcgrid \
//                [--threads N] [--eps 1e-6] \
//                [--default-quota RB:CB] [--quota tenant=RB:CB]... \
//                [--no-obs] [--trace PATH]
//
// RB:CB are the per-tenant realization-budget and chain-store-bytes quotas,
// as byte counts with an optional k/m/g suffix (e.g. 64m:512m).
//
// Observability (DESIGN.md §12) is ON by default in the daemon — the
// `metrics` verb is the point of running one — and its enabled-path cost is
// within the measured <2% budget; --no-obs turns the update hot paths off
// (the verb still answers, with zero-valued series). --trace appends one
// canonical-JSON line per span/event to PATH.
//
// Local workers (--threads) are in-process lease holders: each claims a
// unit, runs it and commits its rows durably. Coordinator mode (DESIGN.md
// §15): with --coordinator the daemon runs no local workers — the lease
// holders are slots that lease (scenario, trial) units to stock
// tcgrid_serve shard daemons (--shard, repeatable, unix:PATH or
// tcp:HOST:PORT; more can join at runtime via the `register` verb), one
// slot per shard worker thread, pulling units from one queue; each unit has
// one live lease at a time, an expired lease's unit is re-leased, and the
// streamed rows commit into the coordinator's own checkpoint. The client-facing
// verbs are unchanged, and the merged row set is byte-identical to a
// single-process run. --listen-tcp accepts the same protocol over TCP —
// the natural shape for shards on other hosts.
//
// SIGINT/SIGTERM stop the daemon cleanly (in-flight units are abandoned,
// not committed — exactly the kill -9 contract, just politer to the
// socket). SIGPIPE is ignored; vanished clients surface as write failures.

#include <pthread.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "util/socket.hpp"

namespace {

using tcgrid::serve::Server;
using tcgrid::serve::ServerOptions;
using tcgrid::serve::TenantQuota;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH --root DIR [--threads N] [--eps X]\n"
               "          [--default-quota RB:CB] [--quota tenant=RB:CB]...\n"
               "          [--no-obs] [--trace PATH]\n"
               "          [--listen-tcp HOST:PORT] [--coordinator]\n"
               "          [--shard ADDR]... [--heartbeat-ms N] [--heartbeat-timeout-ms N]\n"
               "  RB:CB = realization-budget : chain-store bytes, optional k/m/g suffix\n"
               "  --no-obs disables metric updates; --trace appends span events to PATH\n"
               "  --listen-tcp also accepts the protocol on a TCP port\n"
               "  --coordinator runs no local workers: units are leased to --shard\n"
               "    daemons (unix:PATH or tcp:HOST:PORT; repeatable, or registered at\n"
               "    runtime), one lease slot per shard worker thread, one lease per\n"
               "    unit (re-leased on expiry); rows merged byte-identically\n",
               argv0);
  std::exit(2);
}

std::size_t parse_bytes(const std::string& s) {
  if (s.empty()) throw std::invalid_argument("empty byte count");
  std::size_t mult = 1;
  std::string digits = s;
  switch (digits.back()) {
    case 'k': case 'K': mult = 1ull << 10; digits.pop_back(); break;
    case 'm': case 'M': mult = 1ull << 20; digits.pop_back(); break;
    case 'g': case 'G': mult = 1ull << 30; digits.pop_back(); break;
    default: break;
  }
  std::size_t pos = 0;
  const unsigned long long v = std::stoull(digits, &pos);
  if (pos != digits.size()) throw std::invalid_argument("bad byte count '" + s + "'");
  return static_cast<std::size_t>(v) * mult;
}

TenantQuota parse_quota(const std::string& s) {
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("quota must be RB:CB, got '" + s + "'");
  }
  TenantQuota q;
  q.realization_budget = parse_bytes(s.substr(0, colon));
  q.chain_store_bytes = parse_bytes(s.substr(colon + 1));
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string tcp_listen;
  ServerOptions options;
  tcgrid::obs::Options obs_options;
  obs_options.enabled = true;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--socket") socket_path = next();
      else if (arg == "--root") options.root = next();
      else if (arg == "--threads") options.threads = std::stoul(next());
      else if (arg == "--eps") options.eps = std::stod(next());
      else if (arg == "--default-quota") options.default_quota = parse_quota(next());
      else if (arg == "--quota") {
        const std::string v = next();
        const std::size_t eq = v.find('=');
        if (eq == std::string::npos) {
          throw std::invalid_argument("--quota expects tenant=RB:CB, got '" + v + "'");
        }
        options.tenant_quotas[v.substr(0, eq)] = parse_quota(v.substr(eq + 1));
      }
      else if (arg == "--no-obs") obs_options.enabled = false;
      else if (arg == "--trace") obs_options.trace_path = next();
      else if (arg == "--listen-tcp") tcp_listen = next();
      else if (arg == "--coordinator") options.coordinator = true;
      else if (arg == "--shard") options.shard.shards.push_back(next());
      else if (arg == "--heartbeat-ms") options.shard.heartbeat_interval_ms = std::stol(next());
      else if (arg == "--heartbeat-timeout-ms") options.shard.heartbeat_timeout_ms = std::stol(next());
      else usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcgrid_serve: %s\n", e.what());
    return 2;
  }
  if (socket_path.empty() || options.root.empty()) usage(argv[0]);
  tcgrid::obs::configure(obs_options);

  // Block the stop signals in every thread (workers inherit the mask); one
  // dedicated thread sigwait()s them and triggers the stop.
  sigset_t stop_set;
  sigemptyset(&stop_set);
  sigaddset(&stop_set, SIGINT);
  sigaddset(&stop_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_set, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    Server server(options);
    tcgrid::util::Fd listen_fd = tcgrid::util::listen_unix(socket_path);
    tcgrid::util::Fd tcp_fd;
    std::thread tcp_thread;
    if (!tcp_listen.empty()) {
      const std::size_t colon = tcp_listen.rfind(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("--listen-tcp expects HOST:PORT, got '" +
                                    tcp_listen + "'");
      }
      tcp_fd = tcgrid::util::listen_tcp(
          tcp_listen.substr(0, colon),
          static_cast<unsigned short>(std::stoul(tcp_listen.substr(colon + 1))));
      tcp_thread = std::thread([&] { server.serve(tcp_fd.get()); });
      std::fprintf(stderr, "tcgrid_serve: listening on tcp:%s\n", tcp_listen.c_str());
    }
    std::fprintf(stderr, "tcgrid_serve: listening on %s (root %s)%s\n",
                 socket_path.c_str(), options.root.c_str(),
                 options.coordinator ? " [coordinator]" : "");

    std::thread stopper([&] {
      int sig = 0;
      sigwait(&stop_set, &sig);
      std::fprintf(stderr, "tcgrid_serve: signal %d, stopping\n", sig);
      server.hard_stop();
    });

    server.serve(listen_fd.get());  // returns once hard_stop() ran
    stopper.join();
    if (tcp_thread.joinable()) tcp_thread.join();
    listen_fd.reset();
    tcp_fd.reset();
    ::unlink(socket_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcgrid_serve: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
