// End-to-end tests of the gogreen daemon (net/server.h): the in-process
// session and a real client driving the same script over a unix socket
// must produce identical stores and identical structural output
// (differential test); malformed traffic must never crash the server and
// must close or keep the connection exactly per the frame codec's
// contract; concurrent identical clients must coalesce onto one mine;
// graceful shutdown must drain in-flight leaders.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/mining_service.h"
#include "serve/session.h"
#include "serve/wire_service.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace gogreen {
namespace {

using fpm::TransactionDb;
using net::Client;
using net::Server;
using net::ServerOptions;
using net::Verb;
using net::WireRequest;
using net::WireResponse;
using testutil::RandomDb;

/// A served fixture: service (fresh store) + daemon on a unix socket.
/// Declaration order matters: the server must die (draining connections)
/// before the socket's directory is removed.
struct Daemon {
  ScopedTempDir dir;
  std::unique_ptr<serve::MiningService> service;
  std::unique_ptr<Server> server;
  std::string socket_path;
};

Daemon StartDaemon(const TransactionDb& db, uint64_t hold_ms = 0) {
  auto dir = ScopedTempDir::Create(TempDir(), "gg_net_");
  EXPECT_TRUE(dir.ok()) << dir.status().ToString();
  Daemon d{std::move(dir.value()), nullptr, nullptr, ""};
  d.socket_path = d.dir.path() + "/gg.sock";
  d.service = std::make_unique<serve::MiningService>(db, "net-test");
  ServerOptions options;
  options.unix_path = d.socket_path;
  options.mine_hold_ms = hold_ms;
  d.server = std::make_unique<Server>(*d.service, nullptr, options);
  const Status started = d.server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return d;
}

/// Raw unix-socket connection for sending deliberately bad bytes.
int ConnectRaw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  return fd;
}

WireRequest MineRequestAt(double support) {
  WireRequest request;
  request.verb = Verb::kMine;
  request.support = support;
  return request;
}

/// Blanks the per-run volatile fields of a session transcript — timings,
/// the process-global request-id counter, and the governor's byte
/// high-water — so two runs of identical work compare equal on every
/// structural field (route, seed, patterns, outcome, tenant, ...).
std::string Normalize(const std::string& text) {
  static const char* kVolatile[] = {"seconds=", "compress_seconds=",
                                    "request=", "bytes_peak="};
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string word;
    bool first = true;
    while (words >> word) {
      for (const char* prefix : kVolatile) {
        if (word.rfind(prefix, 0) == 0) word = std::string(prefix) + "_";
      }
      out << (first ? "" : " ") << word;
      first = false;
    }
    out << "\n";
  }
  return out.str();
}

TEST(NetServerTest, PingOverUnixSocketAndTcp) {
  const TransactionDb db = RandomDb(11, 100, 20, 4.0);
  Daemon d = StartDaemon(db);

  auto client = Client::ConnectUnix(d.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WireRequest ping;
  ping.verb = Verb::kPing;
  auto resp = client->Call(ping);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->outcome, Outcome::kOk);
  d.server->Stop();

  // Same service, TCP flavor (kernel-assigned loopback port).
  serve::MiningService service(db, "net-test-tcp");
  ServerOptions tcp;
  tcp.tcp_port = 0;
  Server server(service, nullptr, tcp);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  auto tcp_client = Client::ConnectTcp(server.port());
  ASSERT_TRUE(tcp_client.ok()) << tcp_client.status().ToString();
  resp = tcp_client->Call(ping);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->outcome, Outcome::kOk);
  server.Stop();
}

// The tentpole's differential guarantee: the session REPL (in-process
// executor) and a remote client (socket executor) run the same script
// against identical services and must produce the same pattern store and
// the same structural transcript — the wire layer adds transport, not
// behavior.
TEST(NetServerTest, ClientMatchesInProcessSession) {
  const TransactionDb db = RandomDb(29, 400, 40, 6.0);
  const std::string script =
      "mine 40\n"
      "mine 25\n"   // recycle from 40
      "mine 30\n"   // filter-down from 25
      "mine 25\n"   // exact hit
      "threads 2\n"
      "mine 18\n"
      "stats\n"
      "store\n";

  // In-process session.
  serve::MiningService local(db, "net-test");
  std::istringstream local_in(script);
  std::ostringstream local_out;
  auto local_summary =
      serve::RunSession(local, local_in, local_out, serve::SessionConfig{});
  ASSERT_TRUE(local_summary.ok()) << local_summary.status().ToString();

  // The same script through a daemon.
  Daemon d = StartDaemon(db);
  auto client = Client::ConnectUnix(d.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const serve::WireExecutor executor =
      [&client](const WireRequest& request) {
        return client->Call(request);
      };
  std::istringstream remote_in(script);
  std::ostringstream remote_out;
  auto remote_summary = serve::RunWireSession(
      executor, nullptr, remote_in, remote_out, serve::SessionConfig{});
  ASSERT_TRUE(remote_summary.ok()) << remote_summary.status().ToString();

  EXPECT_EQ(local_summary->commands, remote_summary->commands);
  EXPECT_EQ(local_summary->mines, remote_summary->mines);
  EXPECT_EQ(local_summary->partials, remote_summary->partials);

  // Byte-identical transcripts modulo per-run volatile fields. This
  // covers the mined lines, the stats line (route/seed/patterns/
  // outcome/...), and the store accounting line.
  EXPECT_EQ(Normalize(local_out.str()), Normalize(remote_out.str()));

  // Identical stores: same keys, same pattern sets.
  const serve::StoreStats local_stats = local.store().stats();
  const serve::StoreStats remote_stats = d.service->store().stats();
  EXPECT_EQ(local_stats.entries, remote_stats.entries);
  EXPECT_EQ(local_stats.bytes_in_use, remote_stats.bytes_in_use);
  for (const uint64_t support : {40u, 30u, 25u, 18u}) {
    SCOPED_TRACE(support);
    const serve::StoreKey key{"net-test", "", support};
    const auto local_set = local.store().Get(key);
    const auto remote_set = d.service->store().Get(key);
    ASSERT_NE(local_set, nullptr);
    ASSERT_NE(remote_set, nullptr);
    ASSERT_EQ(local_set->size(), remote_set->size());
    for (size_t i = 0; i < local_set->size(); ++i) {
      ASSERT_EQ((*local_set)[i], (*remote_set)[i]) << "pattern " << i;
    }
  }
  d.server->Stop();
}

TEST(NetServerTest, WellFramedBadPayloadKeepsConnectionAlive) {
  const TransactionDb db = RandomDb(13, 100, 20, 4.0);
  Daemon d = StartDaemon(db);
  const int fd = ConnectRaw(d.socket_path);

  struct Case {
    const char* name;
    const char* payload;
    const char* expect_in_error;
  };
  const std::vector<Case> cases = {
      {"bad JSON", "not json at all", "malformed request"},
      {"unknown field", "{\"v\":1,\"verb\":\"ping\",\"zap\":1}", "zap"},
      {"unknown verb", "{\"v\":1,\"verb\":\"fly\"}", "unknown verb"},
      {"wrong version", "{\"v\":1984,\"verb\":\"ping\"}",
       "unsupported protocol version"},
      // Finite but beyond any count: rejected before the float-to-integer
      // conversion instead of mining at a garbage support.
      {"support out of range",
       "{\"v\":1,\"verb\":\"mine\",\"support\":1e30}", "positive support"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(net::WriteFrame(fd, c.payload).ok());
    std::string payload;
    auto got = net::ReadFrame(fd, &payload);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value());
    auto resp = WireResponse::FromJson(payload);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->outcome, Outcome::kError);
    EXPECT_EQ(resp->error_code, StatusCode::kInvalidArgument);
    EXPECT_NE(resp->error.find(c.expect_in_error), std::string::npos)
        << resp->error;
  }

  // The connection survived all of it: a valid request still works.
  WireRequest ping;
  ping.verb = Verb::kPing;
  ping.id = 99;
  ASSERT_TRUE(net::WriteFrame(fd, ping.ToJson()).ok());
  std::string payload;
  auto got = net::ReadFrame(fd, &payload);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value());
  auto resp = WireResponse::FromJson(payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->outcome, Outcome::kOk);
  EXPECT_EQ(resp->id, 99u);
  ::close(fd);
  d.server->Stop();
}

TEST(NetServerTest, MalformedFrameClosesConnectionButNotServer) {
  const TransactionDb db = RandomDb(17, 100, 20, 4.0);
  Daemon d = StartDaemon(db);

  struct Case {
    const char* name;
    std::string bytes;
  };
  const std::vector<Case> cases = {
      {"oversized declared length", std::string("\xFF\xFF\xFF\xFF", 4)},
      {"zero declared length", std::string("\x00\x00\x00\x00", 4)},
      {"NUL in payload",
       std::string("\x00\x00\x00\x03", 4) + std::string("a\0b", 3)},
      {"invalid UTF-8", std::string("\x00\x00\x00\x01", 4) + "\xFF"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const int fd = ConnectRaw(d.socket_path);
    ASSERT_EQ(::send(fd, c.bytes.data(), c.bytes.size(), 0),
              static_cast<ssize_t>(c.bytes.size()));
    // Best-effort error response, then close: we must see EOF after at
    // most one frame, and never hang.
    std::string payload;
    auto got = net::ReadFrame(fd, &payload);
    if (got.ok() && got.value()) {
      auto resp = WireResponse::FromJson(payload);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      EXPECT_EQ(resp->outcome, Outcome::kError);
      got = net::ReadFrame(fd, &payload);
    }
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value()) << "connection should be closed";
    ::close(fd);
  }

  // The server is still healthy for well-behaved clients.
  auto client = Client::ConnectUnix(d.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  WireRequest ping;
  ping.verb = Verb::kPing;
  auto resp = client->Call(ping);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->outcome, Outcome::kOk);
  d.server->Stop();
}

// Two clients asking the identical question while the leader holds must
// rendezvous on one mine: the acceptance criterion's cross-process
// coalescing, here with in-process clients over real sockets.
TEST(NetServerTest, ConcurrentIdenticalClientsCoalesce) {
  const TransactionDb db = RandomDb(43, 400, 40, 6.0);
  Daemon d = StartDaemon(db, /*hold_ms=*/300);

  WireResponse responses[2];
  std::thread clients[2];
  for (int i = 0; i < 2; ++i) {
    clients[i] = std::thread([&d, &responses, i] {
      auto client = Client::ConnectUnix(d.socket_path);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      auto resp = client->Call(MineRequestAt(20));
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      responses[i] = resp.value();
    });
  }
  clients[0].join();
  clients[1].join();
  d.server->Stop();

  int coalesced = 0;
  for (const WireResponse& resp : responses) {
    EXPECT_EQ(resp.outcome, Outcome::kOk);
    EXPECT_GT(resp.patterns, 0u);
    if (resp.coalesced) ++coalesced;
  }
  EXPECT_EQ(coalesced, 1) << "exactly one follower adopts the leader's mine";
  EXPECT_EQ(responses[0].patterns, responses[1].patterns);
}

// Stop() during an in-flight mine: the leader finishes, the response is
// delivered, and only then does the daemon wind down.
TEST(NetServerTest, GracefulShutdownDrainsInFlightMine) {
  const TransactionDb db = RandomDb(59, 400, 40, 6.0);
  Daemon d = StartDaemon(db, /*hold_ms=*/200);

  WireResponse resp;
  std::thread miner([&d, &resp] {
    auto client = Client::ConnectUnix(d.socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto got = client->Call(MineRequestAt(20));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    resp = got.value();
  });
  // Let the mine get in flight (the leader is holding 200ms), then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  d.server->Stop();
  miner.join();

  EXPECT_EQ(resp.outcome, Outcome::kOk);
  EXPECT_GT(resp.patterns, 0u);

  // And the daemon really is down.
  EXPECT_FALSE(Client::ConnectUnix(d.socket_path).ok());
}

// Per-connection tenant binding: the `tenant` verb is sticky for the
// connection that sent it and invisible to other connections.
TEST(NetServerTest, TenantBindingIsPerConnection) {
  const TransactionDb db = RandomDb(61, 200, 30, 5.0);
  Daemon d = StartDaemon(db);

  auto bound = Client::ConnectUnix(d.socket_path);
  auto anonymous = Client::ConnectUnix(d.socket_path);
  ASSERT_TRUE(bound.ok());
  ASSERT_TRUE(anonymous.ok());

  WireRequest bind;
  bind.verb = Verb::kTenant;
  bind.tenant = "acme";
  auto resp = bound->Call(bind);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->tenant, "acme");

  resp = bound->Call(MineRequestAt(30));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->tenant, "acme");

  resp = anonymous->Call(MineRequestAt(25));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->tenant, "");
  d.server->Stop();
}

}  // namespace
}  // namespace gogreen
