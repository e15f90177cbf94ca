// F1 — The three-tier architecture (the paper's Fig. 1): an end-to-end
// consultation flow — store document, open room (db fetch), clients join
// over asymmetric links, choices propagate — with a simulated-time
// breakdown per stage and a wall-time benchmark of the whole scenario.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "doc/builder.h"
#include "harness.h"
#include "net/network.h"
#include "server/interaction_server.h"
#include "storage/database.h"

namespace {

using namespace mmconf;

void PrintFigure1() {
  Clock clock;
  net::Network network(&clock);
  net::NodeId server_node = network.AddNode("interaction-server");
  net::NodeId db_node = network.AddNode("oracle");
  net::NodeId fast = network.AddNode("client-fast");
  net::NodeId slow = network.AddNode("client-slow");
  network.SetDuplexLink(server_node, db_node, {50e6, 500}).ok();
  network.SetDuplexLink(server_node, fast, {10e6, 10000}).ok();
  network.SetDuplexLink(server_node, slow, {128e3, 60000}).ok();

  storage::DatabaseServer db;
  db.RegisterStandardTypes().ok();
  server::InteractionServer server(&db, &network, server_node, db_node);

  std::printf("== F1: end-to-end flow through the Fig. 1 architecture ==\n");
  std::printf("%-42s %12s\n", "stage", "sim-time(ms)");

  MicrosT t0 = clock.NowMicros();
  doc::MultimediaDocument document =
      doc::MakeMedicalRecordDocument().value();
  storage::ObjectRef ref = server.StoreDocument(document, "p").value();
  network.AdvanceUntilIdle();
  std::printf("%-42s %12.2f\n", "store document (server->db)",
              (clock.NowMicros() - t0) / 1000.0);

  MicrosT t1 = clock.NowMicros();
  server.OpenRoom("room", ref).value();
  network.AdvanceUntilIdle();
  std::printf("%-42s %12.2f\n", "open room (db fetch + decode)",
              (clock.NowMicros() - t1) / 1000.0);

  MicrosT t2 = clock.NowMicros();
  MicrosT fast_at = server.Join("room", {"dr-fast", fast}).value();
  MicrosT slow_at = server.Join("room", {"dr-slow", slow}).value();
  network.AdvanceUntilIdle();
  std::printf("%-42s %12.2f\n", "join: initial content to fast client",
              (fast_at - t2) / 1000.0);
  std::printf("%-42s %12.2f\n", "join: initial content to slow client",
              (slow_at - t2) / 1000.0);

  MicrosT t3 = clock.NowMicros();
  server.SubmitChoice("room", "dr-fast", "CT", "hidden").value();
  network.AdvanceUntilIdle();
  std::printf("%-42s %12.2f\n", "choice + delta propagation (settled)",
              (clock.NowMicros() - t3) / 1000.0);

  std::printf("%-42s %12.2f\n", "total scenario",
              clock.NowMicros() / 1000.0);
  std::printf("bytes on the wire: %zu\n\n", network.TotalBytesSent());
}

void BM_EndToEndScenario(benchmark::State& state) {
  for (auto _ : state) {
    Clock clock;
    net::Network network(&clock);
    net::NodeId server_node = network.AddNode("s");
    net::NodeId db_node = network.AddNode("d");
    net::NodeId client = network.AddNode("c");
    network.SetDuplexLink(server_node, db_node, {50e6, 500}).ok();
    network.SetDuplexLink(server_node, client, {1e6, 20000}).ok();
    storage::DatabaseServer db;
    db.RegisterStandardTypes().ok();
    server::InteractionServer server(&db, &network, server_node, db_node);
    doc::MultimediaDocument document =
        doc::MakeMedicalRecordDocument().value();
    storage::ObjectRef ref = server.StoreDocument(document, "p").value();
    server.OpenRoom("room", ref).value();
    server.Join("room", {"v", client}).value();
    server.SubmitChoice("room", "v", "CT", "hidden").value();
    benchmark::DoNotOptimize(network.AdvanceUntilIdle());
  }
}
BENCHMARK(BM_EndToEndScenario);

void BM_RenderView(benchmark::State& state) {
  doc::MultimediaDocument document =
      doc::MakeMedicalRecordDocument().value();
  cpnet::Assignment config = document.DefaultPresentation().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client::RenderDocumentView(document, config));
  }
}
BENCHMARK(BM_RenderView);

}  // namespace

int main(int argc, char** argv) {
  return mmconf::bench::FigureBenchMain(argc, argv, PrintFigure1);
}
