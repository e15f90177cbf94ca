// Federated interaction tier at scale: what splitting the room
// population across N interaction nodes costs (forwarded hops, backbone
// bytes) and buys (per-node load), and what a live-room migration costs
// end to end — snapshot transfer, log replay, verified cutover, stream
// carryover — all in deterministic virtual time.
//
// Results are printed and written as machine-readable JSON (to
// --json_out=PATH). --smoke runs a shrunk sweep and exits nonzero when a
// room fails to converge, a migration fails verification, or the JSON
// cannot be written.
//
// --metrics_out=PATH dumps the obs MetricsRegistry snapshot (per-node
// fed.node.<i>.* gauges and tail-latency histograms included) and
// --trace_out=PATH a Chrome trace_event timeline with migration spans.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "compress/layered_codec.h"
#include "doc/builder.h"
#include "federation/placement.h"
#include "federation/tier.h"
#include "harness.h"
#include "media/synthetic.h"
#include "net/network.h"
#include "server/interaction_server.h"
#include "storage/database.h"

namespace {

using namespace mmconf;

constexpr int kClients = 4;

Bytes EncodeObject(uint64_t seed) {
  Rng rng(seed);
  media::Image image = media::MakePhantomCt({64, 64, 4, 2.0}, rng);
  compress::LayeredCodec codec;
  return codec.Encode(image).value();
}

struct FedFleet {
  Clock clock;
  storage::DatabaseServer db;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<federation::FederatedInteractionTier> tier;
  obs::MetricsRegistry local_metrics;  ///< used when no --metrics_out sink
  obs::MetricsRegistry* metrics = nullptr;
  net::NodeId db_node = 0;
  std::vector<net::NodeId> clients;

  explicit FedFleet(size_t num_nodes, const bench::ObsSinks& sinks = {},
                    int index = 0) {
    network = std::make_unique<net::Network>(&clock, 4242);
    if (sinks.enabled()) sinks.BeginFleet(&clock, index);
    db_node = network->AddNode("db");
    db.RegisterStandardTypes().ok();
    federation::FederationOptions options;
    options.num_nodes = num_nodes;
    options.backbone = {50e6, 1000};
    options.retry.initial_timeout_micros = 150000;
    options.retry.max_attempts = 10;
    tier = std::make_unique<federation::FederatedInteractionTier>(
        &db, network.get(), db_node, options);
    metrics = sinks.metrics != nullptr ? sinks.metrics : &local_metrics;
    tier->SetObserver(metrics, sinks.tracer);
    if (sinks.enabled()) {
      network->SetObserver(sinks.metrics, sinks.tracer);
      tier->transport()->SetObserver(sinks.metrics, sinks.tracer);
    }
    for (int i = 0; i < kClients; ++i) {
      net::NodeId node = network->AddNode("client-" + std::to_string(i));
      tier->ConnectClient(node, {1e6, 20000}).ok();
      clients.push_back(node);
    }
  }
};

const char* Choice(int round) {
  static const char* kChoices[] = {"hidden", "thumbnail", "segmented"};
  return kChoices[round % 3];
}

struct FedRow {
  size_t nodes = 0;
  size_t rooms = 0;
  int rounds = 0;
  size_t routed = 0;      ///< cross-node forwarded hops
  double worst_t2c_ms = 0;
  size_t wire_bytes = 0;
  size_t max_node_rooms = 0;
  size_t min_node_rooms = 0;
  double migration_ms = 0;
  size_t migration_delta = 0;
  size_t streams_carried = 0;
  bool migration_verified = false;
  bool converged = false;
};

FedRow RunPoint(size_t num_nodes, size_t num_rooms, int rounds,
                const bench::ObsSinks& sinks, int index) {
  FedFleet fleet(num_nodes, sinks, index);
  uint64_t routed_before = fleet.metrics->GetCounter("fed.routed")->value();
  FedRow row;
  row.nodes = num_nodes;
  row.rooms = num_rooms;
  row.rounds = rounds;

  std::vector<std::string> rooms;
  for (size_t r = 0; r < num_rooms; ++r) {
    std::string id = "case-" + std::to_string(r);
    fleet.tier
        ->OpenRoomWithDocument(id, doc::MakeMedicalRecordDocument().value())
        .value();
    for (int m = 0; m < 2; ++m) {
      fleet.tier
          ->Join(id, {"viewer-" + std::to_string(r) + "-" + std::to_string(m),
                      fleet.clients[(2 * r + m) % kClients]})
          .value();
    }
    rooms.push_back(id);
  }
  fleet.tier->Settle().value();

  // Choice rounds, deliberately entering through a rotating (often
  // wrong) node so the forwarding path is on the hot path.
  for (int round = 0; round < rounds; ++round) {
    for (size_t r = 0; r < rooms.size(); ++r) {
      size_t via = (r + static_cast<size_t>(round)) % num_nodes;
      fleet.tier
          ->SubmitChoiceVia(via, rooms[r],
                            "viewer-" + std::to_string(r) + "-0", "CT",
                            Choice(round + static_cast<int>(r)))
          .value();
    }
    fleet.tier->Settle().value();
    for (const std::string& id : rooms) {
      size_t owner = fleet.tier->NodeOf(id).value();
      server::RoomReliabilityStats stats =
          fleet.tier->node(owner)->RoomStats(id).value();
      if (stats.last_propagate_at > 0 &&
          stats.last_converged_at >= stats.last_propagate_at) {
        double t2c_ms = static_cast<double>(stats.last_converged_at -
                                            stats.last_propagate_at) /
                        1000.0;
        if (t2c_ms > row.worst_t2c_ms) row.worst_t2c_ms = t2c_ms;
      }
    }
  }

  // One live migration per point: rooms[0] with a mid-flight stream and
  // an action in the delta window, to its neighbour node.
  if (num_nodes > 1) {
    std::string moving = rooms[0];
    size_t owner = fleet.tier->NodeOf(moving).value();
    size_t target = (owner + 1) % num_nodes;
    std::vector<Bytes> objects = {EncodeObject(3), EncodeObject(4)};
    fleet.tier->node(owner)
        ->OpenStream(moving, "viewer-0-0", objects, {})
        .value();
    fleet.tier->StartMigration(moving, target).ok();
    fleet.tier
        ->SubmitChoice(moving, "viewer-0-1", "CT", "icon")
        .value();
    federation::MigrationReport report =
        fleet.tier->FinishMigration(moving).value();
    row.migration_ms = static_cast<double>(report.completed_at -
                                           report.started_at) /
                       1000.0;
    row.migration_delta = report.delta_actions;
    row.streams_carried = report.streams_carried;
    row.migration_verified = report.verified;
    fleet.tier->Settle().value();
  } else {
    row.migration_verified = true;  // nothing to migrate inside one node
  }

  std::vector<federation::NodeLoad> loads = fleet.tier->Loads();
  row.max_node_rooms = 0;
  row.min_node_rooms = num_rooms;
  for (const federation::NodeLoad& load : loads) {
    if (load.rooms > row.max_node_rooms) row.max_node_rooms = load.rooms;
    if (load.rooms < row.min_node_rooms) row.min_node_rooms = load.rooms;
  }
  row.routed =
      fleet.metrics->GetCounter("fed.routed")->value() - routed_before;
  row.wire_bytes = fleet.network->TotalBytesSent();
  row.converged = true;
  for (const std::string& id : rooms) {
    size_t node = fleet.tier->NodeOf(id).value();
    row.converged =
        row.converged && fleet.tier->node(node)->RoomConverged(id);
  }
  return row;
}

std::vector<FedRow> RunScaleSweep(bool smoke,
                                  const bench::ObsSinks& sinks = {}) {
  const int rounds = smoke ? 2 : 6;
  const size_t num_rooms = smoke ? 4 : 12;
  std::vector<FedRow> rows;
  std::printf("== federation: %zu rooms across N interaction nodes "
              "(%d choice rounds, %s) ==\n",
              num_rooms, rounds, smoke ? "smoke" : "full");
  std::printf("%-6s %-7s %-8s %-10s %-12s %-11s %-10s %-9s %-8s\n", "nodes",
              "routed", "t2c(ms)", "wire(B)", "rooms/node", "migr(ms)",
              "delta", "streams", "verified");
  int index = 0;
  for (size_t nodes : {1, 2, 4}) {
    FedRow row = RunPoint(nodes, num_rooms, rounds, sinks, index++);
    std::printf("%-6zu %-7zu %-8.1f %-10zu %zu..%-9zu %-11.1f %-10zu "
                "%-9zu %s\n",
                row.nodes, row.routed, row.worst_t2c_ms, row.wire_bytes,
                row.min_node_rooms, row.max_node_rooms, row.migration_ms,
                row.migration_delta, row.streams_carried,
                row.migration_verified ? "yes" : "NO");
    rows.push_back(row);
  }
  return rows;
}

std::string JsonRow(const FedRow& row) {
  return bench::Format(
      "{\"nodes\": %zu, \"rooms\": %zu, \"rounds\": %d, "
      "\"routed\": %zu, \"worst_t2c_ms\": %.2f, \"wire_bytes\": %zu, "
      "\"max_node_rooms\": %zu, \"min_node_rooms\": %zu, "
      "\"migration_ms\": %.2f, \"migration_delta\": %zu, "
      "\"streams_carried\": %zu, \"migration_verified\": %s, "
      "\"converged\": %s}",
      row.nodes, row.rooms, row.rounds, row.routed, row.worst_t2c_ms,
      row.wire_bytes, row.max_node_rooms, row.min_node_rooms, row.migration_ms,
      row.migration_delta, row.streams_carried,
      row.migration_verified ? "true" : "false",
      row.converged ? "true" : "false");
}

void BM_FederatedChoiceRound(benchmark::State& state) {
  // One choice entering through the wrong node: forward hop + propagate
  // + settle, as a function of the node count.
  size_t nodes = static_cast<size_t>(state.range(0));
  FedFleet fleet(nodes);
  fleet.tier
      ->OpenRoomWithDocument("room", doc::MakeMedicalRecordDocument().value())
      .value();
  fleet.tier->Join("room", {"viewer", fleet.clients[0]}).value();
  fleet.tier->Settle().value();
  size_t owner = fleet.tier->NodeOf("room").value();
  size_t via = nodes > 1 ? (owner + 1) % nodes : owner;
  int round = 0;
  for (auto _ : state) {
    fleet.tier->SubmitChoiceVia(via, "room", "viewer", "CT", Choice(round))
        .value();
    benchmark::DoNotOptimize(fleet.tier->Settle().value());
    ++round;
  }
}
BENCHMARK(BM_FederatedChoiceRound)->Arg(1)->Arg(2)->Arg(4);

void BM_RoomPlacement(benchmark::State& state) {
  federation::RoomPlacement placement(16);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        placement.NodeFor("room-" + std::to_string(i++ % 4096)));
  }
}
BENCHMARK(BM_RoomPlacement);

void BM_RoomMigration(benchmark::State& state) {
  // Full Start+Finish cycle of a room with history, ping-ponging the
  // same room between two nodes so each iteration migrates live state.
  FedFleet fleet(2);
  fleet.tier
      ->OpenRoomWithDocument("room", doc::MakeMedicalRecordDocument().value())
      .value();
  fleet.tier->Join("room", {"viewer", fleet.clients[0]}).value();
  fleet.tier->SubmitChoice("room", "viewer", "CT", "hidden").value();
  fleet.tier->Settle().value();
  size_t here = fleet.tier->NodeOf("room").value();
  for (auto _ : state) {
    size_t there = 1 - here;
    benchmark::DoNotOptimize(fleet.tier->MigrateRoom("room", there).value());
    here = there;
  }
}
BENCHMARK(BM_RoomMigration);

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(/*traced=*/true);
  if (!harness.Start(argc, argv)) return 1;
  std::vector<FedRow> rows = RunScaleSweep(harness.smoke(), harness.sinks());
  bool healthy = true;
  for (const FedRow& row : rows) {
    healthy = healthy && row.converged && row.migration_verified;
  }
  return harness.Finish(
      healthy,
      bench::MakeReport("federation_scale_sweep", "sweep", rows, JsonRow));
}
