#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "compress/layered_codec.h"
#include "doc/builder.h"
#include "federation/placement.h"
#include "federation/tier.h"
#include "media/synthetic.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/interaction_server.h"
#include "server/room.h"
#include "storage/database.h"
#include "stream/chunk.h"

namespace mmconf::federation {
namespace {

using doc::MakeMedicalRecordDocument;
using doc::MultimediaDocument;
using server::ActionType;
using server::ClientEndpoint;
using server::InteractionServer;
using server::Room;
using server::UserAction;

Bytes EncodeObject(uint64_t seed) {
  Rng rng(seed);
  media::Image image = media::MakePhantomCt({64, 64, 4, 2.0}, rng);
  compress::LayeredCodec codec;
  return codec.Encode(image).value();
}

std::vector<Bytes> EncodeObjects(size_t n, uint64_t seed = 7) {
  std::vector<Bytes> objects;
  for (size_t k = 0; k < n; ++k) objects.push_back(EncodeObject(seed + k));
  return objects;
}

// --- Placement ---

TEST(PlacementTest, HashIsDeterministicAndPinsOverride) {
  RoomPlacement a(4);
  RoomPlacement b(4);
  for (const char* id : {"consult", "tumor-board", "room-17", ""}) {
    EXPECT_EQ(a.NodeFor(id), b.NodeFor(id)) << id;
    EXPECT_LT(a.NodeFor(id), 4u);
  }
  size_t hashed = a.NodeFor("consult");
  size_t pinned = (hashed + 1) % 4;
  ASSERT_TRUE(a.Pin("consult", pinned).ok());
  EXPECT_TRUE(a.IsPinned("consult"));
  EXPECT_EQ(a.NodeFor("consult"), pinned);
  EXPECT_EQ(a.HashNodeFor("consult"), hashed);  // hash unaffected by pin
  a.Unpin("consult");
  EXPECT_EQ(a.NodeFor("consult"), hashed);
  EXPECT_TRUE(a.Pin("consult", 4).IsOutOfRange());
}

TEST(PlacementTest, SpreadsRoomsAcrossNodes) {
  RoomPlacement placement(3);
  std::set<size_t> used;
  for (int i = 0; i < 64; ++i) {
    used.insert(placement.NodeFor("room-" + std::to_string(i)));
  }
  EXPECT_EQ(used.size(), 3u);  // FNV-1a spreads 64 ids over 3 nodes
}

// --- Federated tier ---

class FederationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    db_node_ = network_->AddNode("oracle");
    ASSERT_TRUE(db_.RegisterStandardTypes().ok());
    FederationOptions options;
    options.num_nodes = 3;
    options.backbone = {50e6, 1000};
    tier_ = std::make_unique<FederatedInteractionTier>(&db_, network_.get(),
                                                       db_node_, options);
    client1_ = network_->AddNode("client-1");
    client2_ = network_->AddNode("client-2");
    ASSERT_TRUE(tier_->ConnectClient(client1_, {1e6, 20000}).ok());
    ASSERT_TRUE(tier_->ConnectClient(client2_, {1e6, 20000}).ok());
  }

  /// A room id the hash placement puts on `node`.
  std::string RoomOn(size_t node) const {
    for (int i = 0;; ++i) {
      std::string id = "room-" + std::to_string(i);
      if (tier_->placement().HashNodeFor(id) == node) return id;
    }
  }

  Clock clock_;
  storage::DatabaseServer db_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<FederatedInteractionTier> tier_;
  net::NodeId db_node_ = 0, client1_ = 0, client2_ = 0;
};

TEST_F(FederationTest, PlacementIsStableAcrossNetworkFaultSeeds) {
  // A second federation on a network with a different fault seed places
  // every room identically: placement depends only on ids, never on the
  // network's randomness.
  Clock clock2;
  auto network2 = std::make_unique<net::Network>(&clock2, 0xabad1deaull);
  net::NodeId db_node2 = network2->AddNode("oracle");
  storage::DatabaseServer db2;
  ASSERT_TRUE(db2.RegisterStandardTypes().ok());
  FederationOptions options;
  options.num_nodes = 3;
  options.backbone = {50e6, 1000};
  FederatedInteractionTier other(&db2, network2.get(), db_node2, options);
  for (int i = 0; i < 8; ++i) {
    std::string id = "case-" + std::to_string(i);
    tier_->OpenRoomWithDocument(id, MakeMedicalRecordDocument().value())
        .value();
    other.OpenRoomWithDocument(id, MakeMedicalRecordDocument().value())
        .value();
    EXPECT_EQ(tier_->NodeOf(id).value(), other.NodeOf(id).value()) << id;
  }
}

TEST_F(FederationTest, FrontDoorAdmitsClientsToTheOwningNode) {
  std::string room_id = RoomOn(2);
  tier_->OpenRoomWithDocument(room_id, MakeMedicalRecordDocument().value())
      .value();
  EXPECT_EQ(tier_->NodeOf(room_id).value(), 2u);
  size_t admit_before =
      network_->BytesSent(tier_->node_net(0), tier_->node_net(2));
  tier_->Join(room_id, {"dr-cohen", client1_}).value();
  tier_->Settle().value();
  // Only the owning node has the room; the admit hop crossed the
  // front door -> owner backbone link.
  EXPECT_TRUE(tier_->node(2)->GetRoom(room_id).ok());
  EXPECT_TRUE(tier_->node(0)->GetRoom(room_id).status().IsNotFound());
  EXPECT_TRUE(tier_->node(1)->GetRoom(room_id).status().IsNotFound());
  EXPECT_GT(network_->BytesSent(tier_->node_net(0), tier_->node_net(2)),
            admit_before);
  EXPECT_TRUE((*tier_->GetRoom(room_id))->HasMember("dr-cohen"));
}

TEST_F(FederationTest, CrossNodePropagateMatchesSingleServer) {
  // The same action sequence through the federation (including a
  // mis-directed request forwarded between nodes) and through one
  // standalone InteractionServer must converge to byte-identical rooms.
  net::NodeId solo_node = network_->AddNode("solo");
  ASSERT_TRUE(network_->SetDuplexLink(solo_node, db_node_, {50e6, 1000}).ok());
  ASSERT_TRUE(network_->SetDuplexLink(solo_node, client1_, {1e6, 20000}).ok());
  ASSERT_TRUE(network_->SetDuplexLink(solo_node, client2_, {1e6, 20000}).ok());
  InteractionServer solo(&db_, network_.get(), solo_node, db_node_);

  const std::string room_id = "consult";
  tier_->OpenRoomWithDocument(room_id, MakeMedicalRecordDocument().value())
      .value();
  solo.OpenRoomWithDocument(room_id, MakeMedicalRecordDocument().value())
      .value();
  size_t owner = tier_->NodeOf(room_id).value();
  size_t wrong = (owner + 1) % tier_->num_nodes();

  tier_->Join(room_id, {"dr-cohen", client1_}).value();
  tier_->Join(room_id, {"dr-levi", client2_}).value();
  tier_->SubmitChoice(room_id, "dr-cohen", "CT", "hidden").value();
  tier_->SubmitChoiceVia(wrong, room_id, "dr-levi", "XRay", "flat").value();
  UserAction op;
  op.type = ActionType::kSegmentOp;
  op.viewer = "dr-cohen";
  op.component = "CT";
  tier_->ApplyOperation(room_id, op, /*globally_important=*/true).value();
  tier_->SubmitChoice(room_id, "dr-cohen", "CT", "").value();

  solo.Join(room_id, {"dr-cohen", client1_}).value();
  solo.Join(room_id, {"dr-levi", client2_}).value();
  solo.SubmitChoice(room_id, "dr-cohen", "CT", "hidden").value();
  solo.SubmitChoice(room_id, "dr-levi", "XRay", "flat").value();
  solo.ApplyOperation(room_id, op, /*globally_important=*/true).value();
  solo.SubmitChoice(room_id, "dr-cohen", "CT", "").value();

  tier_->Settle().value();
  network_->AdvanceUntilIdle();
  EXPECT_EQ((*tier_->GetRoom(room_id))->Serialize(),
            (*solo.GetRoom(room_id))->Serialize());
}

TEST_F(FederationTest, MigrationReplaysStateByteIdentically) {
  std::string room_id = RoomOn(0);
  tier_->OpenRoomWithDocument(room_id, MakeMedicalRecordDocument().value())
      .value();
  tier_->Join(room_id, {"dr-cohen", client1_}).value();
  tier_->Join(room_id, {"dr-levi", client2_}).value();
  tier_->SubmitChoice(room_id, "dr-cohen", "CT", "hidden").value();
  UserAction op;
  op.type = ActionType::kSegmentOp;
  op.viewer = "dr-levi";
  op.component = "XRay";
  tier_->ApplyOperation(room_id, op, /*globally_important=*/false).value();
  ASSERT_TRUE((*tier_->GetRoom(room_id))->Freeze("dr-cohen", "CT").ok());
  tier_->Settle().value();

  Bytes before = (*tier_->GetRoom(room_id))->Serialize();
  MigrationReport report = tier_->MigrateRoom(room_id, 1).value();
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.from_node, 0u);
  EXPECT_EQ(report.to_node, 1u);
  EXPECT_GT(report.state_bytes, 0u);
  EXPECT_GE(report.replayed_actions, 5u);
  EXPECT_EQ(report.delta_actions, 0u);

  // The room now lives (pinned) on node 1, byte-identical; the source
  // copy is gone; members, choices, freezes and overlays all survived.
  EXPECT_EQ(tier_->NodeOf(room_id).value(), 1u);
  EXPECT_TRUE(tier_->placement().IsPinned(room_id));
  EXPECT_TRUE(tier_->node(0)->GetRoom(room_id).status().IsNotFound());
  Room* moved = tier_->GetRoom(room_id).value();
  EXPECT_EQ(moved->Serialize(), before);
  EXPECT_TRUE(moved->HasMember("dr-levi"));
  EXPECT_TRUE(moved->IsFrozen("CT"));
  EXPECT_EQ((*moved->OverlayFor("dr-levi"))->size(), 1u);
  // And it keeps serving: only the freeze holder may release.
  tier_->SubmitChoice(room_id, "dr-levi", "CT", "thumbnail")
      .status()
      .ok();
  EXPECT_TRUE((*tier_->GetRoom(room_id))->ReleaseFreeze("dr-cohen", "CT").ok());
  tier_->Settle().value();
}

TEST_F(FederationTest, ActionsDuringMigrationLandInTheDelta) {
  std::string room_id = RoomOn(1);
  tier_->OpenRoomWithDocument(room_id, MakeMedicalRecordDocument().value())
      .value();
  tier_->Join(room_id, {"dr-cohen", client1_}).value();
  tier_->Settle().value();

  ASSERT_TRUE(tier_->StartMigration(room_id, 2).ok());
  EXPECT_TRUE(tier_->Migrating(room_id));
  // The room keeps serving on the source while the snapshot is in
  // flight; these actions ride the delta.
  EXPECT_EQ(tier_->NodeOf(room_id).value(), 1u);
  tier_->SubmitChoice(room_id, "dr-cohen", "CT", "hidden").value();
  tier_->Join(room_id, {"dr-levi", client2_}).value();

  MigrationReport report = tier_->FinishMigration(room_id).value();
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.delta_actions, 2u);
  EXPECT_FALSE(tier_->Migrating(room_id));
  Room* moved = tier_->GetRoom(room_id).value();
  EXPECT_TRUE(moved->HasMember("dr-levi"));
  EXPECT_EQ(moved->document()
                .PresentationFor(moved->configuration(), "CT")
                .value()
                .name,
            "hidden");
  // A second migration of the same room also works (pin -> pin).
  tier_->Settle().value();
  EXPECT_EQ(tier_->MigrateRoom(room_id, 0).value().to_node, 0u);
  EXPECT_EQ(tier_->NodeOf(room_id).value(), 0u);
}

TEST_F(FederationTest, NodeLossDuringMigrationLeavesRoomIntactOnSource) {
  std::string room_id = RoomOn(0);
  tier_->OpenRoomWithDocument(room_id, MakeMedicalRecordDocument().value())
      .value();
  tier_->Join(room_id, {"dr-cohen", client1_}).value();
  tier_->SubmitChoice(room_id, "dr-cohen", "CT", "hidden").value();
  tier_->Settle().value();
  Bytes before = (*tier_->GetRoom(room_id))->Serialize();

  ASSERT_TRUE(tier_->StartMigration(room_id, 1).ok());
  // The target node dies (partition) while the snapshot is in flight.
  network_->Partition(tier_->node_net(0), tier_->node_net(1));
  Result<MigrationReport> failed = tier_->FinishMigration(room_id);
  EXPECT_TRUE(failed.status().IsResourceExhausted());
  EXPECT_FALSE(tier_->Migrating(room_id));

  // The room never left the source: same bytes, same owner, still live.
  EXPECT_EQ(tier_->NodeOf(room_id).value(), 0u);
  EXPECT_FALSE(tier_->placement().IsPinned(room_id));
  EXPECT_TRUE(tier_->node(1)->GetRoom(room_id).status().IsNotFound());
  EXPECT_EQ((*tier_->GetRoom(room_id))->Serialize(), before);
  tier_->SubmitChoice(room_id, "dr-cohen", "XRay", "flat").value();
  tier_->Settle().value();

  // Heal the backbone and the migration goes through, delta included.
  ASSERT_TRUE(network_
                  ->SetDuplexLink(tier_->node_net(0), tier_->node_net(1),
                                  {50e6, 1000})
                  .ok());
  MigrationReport report = tier_->MigrateRoom(room_id, 1).value();
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(tier_->NodeOf(room_id).value(), 1u);
  EXPECT_TRUE((*tier_->GetRoom(room_id))->HasMember("dr-cohen"));
}

TEST_F(FederationTest, NonReplayableRoomRefusesToMigrate) {
  std::string room_id = RoomOn(0);
  tier_->OpenRoomWithDocument(room_id, MakeMedicalRecordDocument().value())
      .value();
  tier_->Join(room_id, {"dr-cohen", client1_}).value();
  // A structural edit the action log cannot replay.
  ASSERT_TRUE((*tier_->GetRoom(room_id))
                  ->RemoveComponent("dr-cohen", "ExpertVoice")
                  .ok());
  EXPECT_FALSE((*tier_->GetRoom(room_id))->replayable());
  EXPECT_TRUE(tier_->StartMigration(room_id, 1).IsFailedPrecondition());
  EXPECT_FALSE(tier_->Migrating(room_id));
  EXPECT_EQ(tier_->NodeOf(room_id).value(), 0u);
}

TEST_F(FederationTest, LiveStreamsMigrateWithTheRoom) {
  std::string room_id = RoomOn(0);
  tier_->OpenRoomWithDocument(room_id, MakeMedicalRecordDocument().value())
      .value();
  tier_->Join(room_id, {"dr-cohen", client1_}).value();
  tier_->Settle().value();

  stream::StreamOptions options;
  options.interval_micros = 100000;
  stream::StreamId id =
      tier_->node(0)->OpenStream(room_id, "dr-cohen", EncodeObjects(3),
                                 options)
          .value();
  // Migrate before the scheduler is pumped: every object is still
  // pending, so the whole stream moves with the room.
  MigrationReport report = tier_->MigrateRoom(room_id, 2).value();
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.streams_carried, 1u);
  EXPECT_TRUE(tier_->node(0)->StreamsIdle());

  size_t from_source = network_->BytesSent(tier_->node_net(0), client1_);
  size_t from_target = network_->BytesSent(tier_->node_net(2), client1_);
  tier_->Settle().value();
  // Chunks now flow from the new node — and only from it.
  EXPECT_EQ(network_->BytesSent(tier_->node_net(0), client1_), from_source);
  EXPECT_GT(network_->BytesSent(tier_->node_net(2), client1_), from_target);

  std::vector<stream::StreamStats> stats =
      tier_->node(2)->RoomStreamStats(room_id).value();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].id, id);  // the stream kept its id across nodes
  EXPECT_TRUE(stats[0].finished);
  EXPECT_GT(stats[0].chunks_acked, 0u);
  EXPECT_EQ(stats[0].chunks_failed, 0u);
  // Every chunk was either delivered or was an enhancement-layer chunk
  // the scheduler chose to drop under deadline pressure.
  EXPECT_EQ(stats[0].chunks_acked + stats[0].enhancement_chunks_dropped,
            stats[0].chunks_total);
}

/// When the transport first sent the message tagged `tag`, read off the
/// tracer's first-send-to-ack span; -1 when the tag never acked.
MicrosT FirstSentAt(const obs::Tracer& tracer, const std::string& tag) {
  std::string json = tracer.ToJson();
  size_t at = json.find("\"name\": \"" + tag + "\"");
  if (at == std::string::npos) return -1;
  size_t ts = json.find("\"ts\": ", at);
  if (ts == std::string::npos) return -1;
  return std::stoll(json.substr(ts + 6));
}

TEST_F(FederationTest, FreshStreamSendsItsFirstChunkAtOpen) {
  std::string room_id = RoomOn(1);
  tier_->OpenRoomWithDocument(room_id, MakeMedicalRecordDocument().value())
      .value();
  tier_->Join(room_id, {"dr-cohen", client1_}).value();
  tier_->Settle().value();
  obs::Tracer tracer(&clock_);
  tier_->transport()->SetObserver(nullptr, &tracer);

  // An ample link: every layer of every object fits well inside the
  // deadlines, provided the first chunk leaves when the stream opens
  // rather than at the first playout deadline.
  const MicrosT opened_at = clock_.NowMicros();
  stream::StreamOptions options;
  options.start_deadline_micros = opened_at + 500000;
  options.interval_micros = 200000;
  options.chunk_bytes = 2048;
  stream::StreamId id =
      tier_->node(1)->OpenStream(room_id, "dr-cohen", EncodeObjects(3),
                                 options)
          .value();
  tier_->Settle().value();

  stream::StreamStats stats = tier_->node(1)->StreamSessionStats(id).value();
  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(stats.playout.stalls, 0u);
  EXPECT_EQ(stats.playout.total_stall_micros, 0);
  EXPECT_EQ(stats.layers_dropped, 0u);
  EXPECT_EQ(stats.enhancement_chunks_dropped, 0u);
  EXPECT_EQ(stats.chunks_acked, stats.chunks_total);
  EXPECT_EQ(FirstSentAt(tracer, stream::ChunkTag(id, 0)), opened_at);
}

TEST(FederationDriveTest, OneNodeTierStreamsLikeALoneServer) {
  // The same stream over the same links, driven once by a lone server's
  // AdvanceStreamsUntilIdle and once by a 1-node tier's Settle: one drive
  // loop, so identical accounting. Node ids line up (db 0, server 1,
  // client 2), and the 12 kB/s downlink forces pacing and layer drops.
  const net::LinkSpec backbone{50e6, 1000};
  const net::LinkSpec downlink{12e3, 20000};
  stream::StreamOptions options;
  options.interval_micros = 60000;
  options.chunk_bytes = 1024;
  const std::vector<Bytes> objects = EncodeObjects(4);

  Clock solo_clock;
  net::Network solo_net(&solo_clock);
  net::NodeId solo_db = solo_net.AddNode("oracle");
  net::NodeId solo_node = solo_net.AddNode("solo");
  net::NodeId solo_client = solo_net.AddNode("client");
  ASSERT_TRUE(solo_net.SetDuplexLink(solo_node, solo_db, backbone).ok());
  ASSERT_TRUE(solo_net.SetDuplexLink(solo_node, solo_client, downlink).ok());
  storage::DatabaseServer solo_db_server;
  ASSERT_TRUE(solo_db_server.RegisterStandardTypes().ok());
  InteractionServer solo(&solo_db_server, &solo_net, solo_node, solo_db);
  net::ReliableTransport solo_transport(&solo_net);
  solo.UseReliableTransport(&solo_transport);
  solo.OpenRoomWithDocument("consult", MakeMedicalRecordDocument().value())
      .value();
  solo.Join("consult", {"dr-cohen", solo_client}).value();
  solo.AdvanceStreamsUntilIdle().value();
  const MicrosT opened_at = solo_clock.NowMicros();
  options.start_deadline_micros = opened_at + 200000;
  stream::StreamId solo_id =
      solo.OpenStream("consult", "dr-cohen", objects, options).value();
  solo.AdvanceStreamsUntilIdle().value();

  Clock tier_clock;
  net::Network tier_net(&tier_clock);
  net::NodeId tier_db = tier_net.AddNode("oracle");
  storage::DatabaseServer tier_db_server;
  ASSERT_TRUE(tier_db_server.RegisterStandardTypes().ok());
  FederationOptions fed;
  fed.num_nodes = 1;
  fed.backbone = backbone;
  FederatedInteractionTier tier(&tier_db_server, &tier_net, tier_db, fed);
  net::NodeId tier_client = tier_net.AddNode("client");
  ASSERT_EQ(tier.node_net(0), solo_node);
  ASSERT_EQ(tier_client, solo_client);
  ASSERT_TRUE(tier.ConnectClient(tier_client, downlink).ok());
  tier.OpenRoomWithDocument("consult", MakeMedicalRecordDocument().value())
      .value();
  tier.Join("consult", {"dr-cohen", tier_client}).value();
  tier.Settle().value();
  ASSERT_EQ(tier_clock.NowMicros(), opened_at);
  stream::StreamId tier_id =
      tier.node(0)->OpenStream("consult", "dr-cohen", objects, options)
          .value();
  tier.Settle().value();

  stream::StreamStats a = solo.StreamSessionStats(solo_id).value();
  stream::StreamStats b = tier.node(0)->StreamSessionStats(tier_id).value();
  auto key = [](const stream::StreamStats& s) {
    return std::make_tuple(
        s.id, s.client, s.chunks_total, s.chunks_sent, s.chunks_acked,
        s.chunks_failed, s.enhancement_chunks_dropped, s.layers_dropped,
        s.bytes_sent, s.estimated_rate_bytes_per_sec, s.aborted, s.finished,
        s.playout.objects_expected, s.playout.objects_played, s.playout.stalls,
        s.playout.total_stall_micros, s.playout.max_stall_micros,
        s.playout.layers_delivered_total, s.playout.min_layers,
        s.playout.bytes_received, s.playout.bytes_played,
        s.playout.wasted_bytes, s.playout.high_water_bytes);
  };
  EXPECT_TRUE(a.finished);
  EXPECT_GT(a.layers_dropped, 0u);  // the link really constrained it
  EXPECT_EQ(key(a), key(b));
  EXPECT_EQ(solo_clock.NowMicros(), tier_clock.NowMicros());
}

TEST_F(FederationTest, LoadsAndMetricsTrackNodesAndMigrations) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer(&clock_);
  tier_->SetObserver(&metrics, &tracer);

  std::vector<std::string> rooms = {RoomOn(0), RoomOn(1), RoomOn(2)};
  for (const std::string& id : rooms) {
    tier_->OpenRoomWithDocument(id, MakeMedicalRecordDocument().value())
        .value();
    tier_->Join(id, {"dr-cohen", client1_}).value();
  }
  tier_->SubmitChoice(rooms[0], "dr-cohen", "CT", "hidden").value();
  tier_->Settle().value();
  MigrationReport report = tier_->MigrateRoom(rooms[0], 1).value();
  ASSERT_TRUE(report.verified);
  tier_->Settle().value();

  std::vector<NodeLoad> loads = tier_->Loads();
  ASSERT_EQ(loads.size(), 3u);
  size_t total_rooms = 0, total_members = 0;
  for (const NodeLoad& load : loads) {
    total_rooms += load.rooms;
    total_members += load.members;
  }
  EXPECT_EQ(total_rooms, 3u);
  EXPECT_EQ(total_members, 3u);
  EXPECT_EQ(loads[0].rooms, 0u);  // rooms[0] migrated away, 1 gained it
  EXPECT_EQ(loads[1].rooms, 2u);

  EXPECT_EQ(metrics.GetCounter("fed.migrations")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("fed.migrations_failed")->value(), 0u);
  EXPECT_EQ(metrics.GetGauge("fed.node.1.rooms")->value(), 2);
  EXPECT_GT(metrics.GetGauge("fed.node.1.messages")->value(), 0);
  EXPECT_GT(metrics.GetHistogram("fed.migration_micros", {})->count(), 0u);
}

}  // namespace
}  // namespace mmconf::federation
