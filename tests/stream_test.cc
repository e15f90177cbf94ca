#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "compress/layered_codec.h"
#include "doc/builder.h"
#include "media/synthetic.h"
#include "net/network.h"
#include "net/reliable.h"
#include "prefetch/cache.h"
#include "server/interaction_server.h"
#include "storage/database.h"
#include "stream/chunk.h"
#include "stream/chunker.h"
#include "stream/drive.h"
#include "stream/playout.h"
#include "stream/rate.h"
#include "stream/scheduler.h"

namespace mmconf::stream {
namespace {

using compress::LayeredCodec;
using compress::StreamInfo;

Bytes EncodeObject(uint64_t seed) {
  Rng rng(seed);
  media::Image image = media::MakePhantomCt({64, 64, 4, 2.0}, rng);
  LayeredCodec codec;
  return codec.Encode(image).value();
}

std::vector<Bytes> EncodeObjects(size_t n, uint64_t seed = 7) {
  std::vector<Bytes> objects;
  for (size_t k = 0; k < n; ++k) objects.push_back(EncodeObject(seed + k));
  return objects;
}

// --- Chunk tags ---

TEST(ChunkTagTest, RoundTrip) {
  std::string tag = ChunkTag(42, 7);
  EXPECT_EQ(tag, "sc:42:7");
  StreamId id = 0;
  uint32_t seq = 0;
  ASSERT_TRUE(ParseChunkTag(tag, &id, &seq));
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(seq, 7u);
}

TEST(ChunkTagTest, RejectsForeignTags) {
  StreamId id = 0;
  uint32_t seq = 0;
  EXPECT_FALSE(ParseChunkTag("presentation-delta", &id, &seq));
  EXPECT_FALSE(ParseChunkTag("sc:12", &id, &seq));
  EXPECT_FALSE(ParseChunkTag("sc:x:1", &id, &seq));
  EXPECT_FALSE(ParseChunkTag("sc:1:2:3", &id, &seq));
}

// --- Chunker ---

TEST(ChunkerTest, SplitsOnLayerBoundaries) {
  Bytes encoded = EncodeObject(11);
  StreamInfo info = LayeredCodec::Inspect(encoded).value();
  int layers = static_cast<int>(info.layer_end.size());
  ASSERT_GE(layers, 2);

  Chunker chunker(/*max_chunk_bytes=*/2048);
  ObjectPlan plan = chunker.Plan(encoded, 9, 0, 100, 500000).value();
  EXPECT_EQ(plan.num_layers, layers);
  ASSERT_EQ(plan.layer_bytes.size(), static_cast<size_t>(layers));

  // Per-layer byte totals from the chunks must match the layer_end table:
  // layer 0 owns the header, layer k the slice up to layer_end[k].
  std::vector<size_t> per_layer(layers, 0);
  uint32_t expect_seq = 100;
  for (const Chunk& chunk : plan.chunks) {
    EXPECT_EQ(chunk.stream, 9u);
    EXPECT_EQ(chunk.object_index, 0u);
    EXPECT_EQ(chunk.seq, expect_seq++);
    EXPECT_LE(chunk.bytes, 2048u);
    EXPECT_GT(chunk.bytes, 0u);
    EXPECT_EQ(chunk.base, chunk.layer == 0);
    EXPECT_EQ(chunk.deadline, 500000);
    ASSERT_LT(chunk.layer, layers);
    per_layer[chunk.layer] += chunk.bytes;
  }
  for (int k = 0; k < layers; ++k) {
    size_t expected = k == 0 ? info.layer_end[0]
                             : info.layer_end[k] - info.layer_end[k - 1];
    EXPECT_EQ(per_layer[k], expected) << "layer " << k;
    EXPECT_EQ(plan.layer_bytes[k], expected) << "layer " << k;
  }
  EXPECT_EQ(plan.total_bytes, info.total_bytes);
}

TEST(ChunkerTest, RejectsTruncatedBitstream) {
  Bytes encoded = EncodeObject(12);
  encoded.resize(encoded.size() - 16);
  Chunker chunker;
  EXPECT_TRUE(
      chunker.Plan(encoded, 1, 0, 0, 1000).status().IsInvalidArgument());
}

// --- Token bucket and rate estimator ---

TEST(TokenBucketTest, PacesToRate) {
  TokenBucket bucket(/*rate=*/1000.0, /*burst=*/2000);
  EXPECT_TRUE(bucket.CanSend(2000));
  bucket.Consume(2000);
  EXPECT_FALSE(bucket.CanSend(1));
  // 1000 bytes at 1000 B/s: available one simulated second later.
  EXPECT_EQ(bucket.WhenAvailable(1000, 0), 1000000);
  bucket.Refill(1000000);
  EXPECT_TRUE(bucket.CanSend(1000));
  EXPECT_FALSE(bucket.CanSend(1001));
}

TEST(TokenBucketTest, OversizedRequestSaturatesAtBurst) {
  TokenBucket bucket(1000.0, 2000);
  bucket.Consume(2000);
  // A 10x-burst request waits only until the bucket is full, so oversized
  // chunks still clear eventually.
  EXPECT_EQ(bucket.WhenAvailable(20000, 0), 2000000);
}

TEST(AckRateEstimatorTest, TracksAckSpacingNotRtt) {
  AckRateEstimator estimator(/*initial=*/1e6);
  // Every ack has a 200ms RTT (latency-dominated), but acks arrive 10ms
  // apart carrying 1000 bytes each: the spacing says 100 kB/s.
  estimator.OnAck(1000, 0, 200000);
  EXPECT_DOUBLE_EQ(estimator.BytesPerSec(), 1e6);  // one ack, no interval
  estimator.OnAck(1000, 10000, 210000);
  EXPECT_NEAR(estimator.BytesPerSec(), 100000.0, 1.0);
  for (int k = 2; k < 10; ++k) {
    estimator.OnAck(1000, k * 10000, 200000 + k * 10000);
  }
  EXPECT_NEAR(estimator.BytesPerSec(), 100000.0, 1.0);
}

// --- Playout buffer ---

TEST(PlayoutBufferTest, EnforcesMonotoneDeadlinesAndOrder) {
  PlayoutBuffer playout(1 << 20);
  ASSERT_TRUE(playout.ExpectObject(0, 1000, {100, 50}).ok());
  EXPECT_TRUE(playout.ExpectObject(2, 2000, {100}).IsInvalidArgument());
  EXPECT_TRUE(playout.ExpectObject(1, 999, {100}).IsInvalidArgument());
  EXPECT_TRUE(playout.ExpectObject(1, 1000, {100}).ok());  // ties allowed
}

TEST(PlayoutBufferTest, BaseLayerIsNeverDropped) {
  PlayoutBuffer playout(1 << 20);
  ASSERT_TRUE(playout.ExpectObject(0, 1000, {100, 50, 25}).ok());
  EXPECT_TRUE(playout.MarkLayerDropped(0, 0).IsInvalidArgument());
  EXPECT_TRUE(playout.MarkLayerDropped(0, 1).ok());
}

TEST(PlayoutBufferTest, StallAndWasteAccounting) {
  PlayoutBuffer playout(1 << 20);
  ASSERT_TRUE(playout.ExpectObject(0, 1000, {100, 50}).ok());

  Chunk base;
  base.object_index = 0;
  base.layer = 0;
  base.bytes = 100;
  base.last_of_layer = true;
  base.deadline = 1000;
  base.base = true;

  // Base misses its deadline by 500us: the object stalls, then plays at
  // base-completion time with only the base layer decodable.
  playout.AdvanceTo(1200);
  EXPECT_EQ(playout.stats().objects_played, 0u);
  ASSERT_TRUE(playout.OnChunk(base, 1500).ok());
  EXPECT_EQ(playout.fill_bytes(), 100u);
  playout.AdvanceTo(1600);
  EXPECT_TRUE(playout.AllPlayed());
  EXPECT_EQ(playout.stats().objects_played, 1u);
  EXPECT_EQ(playout.stats().stalls, 1u);
  EXPECT_EQ(playout.stats().total_stall_micros, 500);
  EXPECT_EQ(playout.stats().max_stall_micros, 500);
  EXPECT_EQ(playout.DeliveredLayers(0).value(), 1);
  EXPECT_EQ(playout.fill_bytes(), 0u);  // played bytes leave the buffer

  // The enhancement limps in after play: wasted, not quality.
  Chunk enh = base;
  enh.layer = 1;
  enh.bytes = 50;
  enh.base = false;
  ASSERT_TRUE(playout.OnChunk(enh, 1700).ok());
  EXPECT_EQ(playout.stats().wasted_bytes, 50u);
  EXPECT_EQ(playout.stats().min_layers, 1);
  EXPECT_EQ(playout.stats().high_water_bytes, 100u);
}

TEST(PlayoutBufferTest, OnTimeObjectPlaysAtDeadlineWithAllLayers) {
  PlayoutBuffer playout(1 << 20);
  ASSERT_TRUE(playout.ExpectObject(0, 1000, {100, 50}).ok());
  Chunk base{};
  base.bytes = 100;
  base.last_of_layer = true;
  base.deadline = 1000;
  base.base = true;
  Chunk enh = base;
  enh.layer = 1;
  enh.bytes = 50;
  enh.base = false;
  ASSERT_TRUE(playout.OnChunk(base, 400).ok());
  ASSERT_TRUE(playout.OnChunk(enh, 600).ok());
  EXPECT_EQ(playout.NextPlayAt(), 1000);
  playout.AdvanceTo(1000);
  EXPECT_EQ(playout.stats().stalls, 0u);
  EXPECT_EQ(playout.DeliveredLayers(0).value(), 2);
  EXPECT_EQ(playout.stats().bytes_played, 150u);
}

// --- End-to-end streaming through the interaction server ---

class StreamServerTest : public ::testing::Test {
 protected:
  void SetUp() override { Build(/*fault_seed=*/0x5eedf00dull); }

  void Build(uint64_t fault_seed) {
    server_.reset();
    transport_.reset();
    network_.reset();
    clock_ = Clock();
    network_ = std::make_unique<net::Network>(&clock_, fault_seed);
    server_node_ = network_->AddNode("interaction-server");
    db_node_ = network_->AddNode("oracle");
    client1_ = network_->AddNode("client-1");
    client2_ = network_->AddNode("client-2");
    ASSERT_TRUE(
        network_->SetDuplexLink(server_node_, db_node_, {50e6, 1000}).ok());
    ASSERT_TRUE(
        network_->SetDuplexLink(server_node_, client1_, {1e6, 20000}).ok());
    ASSERT_TRUE(
        network_->SetDuplexLink(server_node_, client2_, {1e6, 20000}).ok());
    ASSERT_TRUE(db_.RegisterStandardTypes().ok());
    server_ = std::make_unique<server::InteractionServer>(
        &db_, network_.get(), server_node_, db_node_);
    transport_ = std::make_unique<net::ReliableTransport>(network_.get());
    server_->UseReliableTransport(transport_.get());
    ASSERT_TRUE(server_
                    ->OpenRoomWithDocument(
                        "consult", doc::MakeMedicalRecordDocument().value())
                    .ok());
    ASSERT_TRUE(server_->Join("consult", {"dr-cohen", client1_}).ok());
    ASSERT_TRUE(server_->Join("consult", {"dr-levi", client2_}).ok());
    // Settle the join payloads so stream tests start from a quiet wire.
    transport_->AdvanceUntilIdle();
  }

  /// Deadlines relative to the current virtual time (the join handshake
  /// already consumed a few hundred simulated milliseconds).
  StreamOptions Options(MicrosT lead = 500000, MicrosT interval = 200000) {
    StreamOptions options;
    options.start_deadline_micros = clock_.NowMicros() + lead;
    options.interval_micros = interval;
    options.chunk_bytes = 2048;
    return options;
  }

  Clock clock_;
  storage::DatabaseServer db_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ReliableTransport> transport_;
  std::unique_ptr<server::InteractionServer> server_;
  net::NodeId server_node_ = 0, db_node_ = 0, client1_ = 0, client2_ = 0;
};

TEST_F(StreamServerTest, AmpleBandwidthDeliversEveryLayerWithoutStalls) {
  std::vector<Bytes> objects = EncodeObjects(3);
  int layers = static_cast<int>(
      LayeredCodec::Inspect(objects[0]).value().layer_end.size());

  StreamId s1 =
      server_->OpenStream("consult", "dr-cohen", objects, Options()).value();
  StreamId s2 =
      server_->OpenStream("consult", "dr-levi", objects, Options()).value();
  EXPECT_EQ(server_->num_streams(), 2u);
  ASSERT_TRUE(server_->AdvanceStreamsUntilIdle().ok());
  EXPECT_TRUE(server_->StreamsIdle());

  for (StreamId id : {s1, s2}) {
    StreamStats stats = server_->StreamSessionStats(id).value();
    EXPECT_TRUE(stats.finished);
    EXPECT_FALSE(stats.aborted);
    EXPECT_EQ(stats.chunks_acked, stats.chunks_total);
    EXPECT_EQ(stats.chunks_failed, 0u);
    EXPECT_EQ(stats.layers_dropped, 0u);
    EXPECT_EQ(stats.enhancement_chunks_dropped, 0u);
    EXPECT_EQ(stats.playout.objects_played, 3u);
    EXPECT_EQ(stats.playout.stalls, 0u);
    EXPECT_EQ(stats.playout.total_stall_micros, 0);
    EXPECT_EQ(stats.playout.min_layers, layers);
    EXPECT_DOUBLE_EQ(stats.playout.MeanLayers(), layers);
    EXPECT_EQ(stats.playout.wasted_bytes, 0u);
  }
  std::vector<StreamStats> room = server_->RoomStreamStats("consult").value();
  EXPECT_EQ(room.size(), 2u);
}

TEST_F(StreamServerTest, ConstrainedLinkDropsOnlyEnhancementLayers) {
  // Squeeze dr-cohen's downlink so full-quality delivery cannot keep up
  // with the deadline cadence, while base layers alone fit comfortably.
  ASSERT_TRUE(
      network_->SetDuplexLink(server_node_, client1_, {8e3, 20000}).ok());
  std::vector<Bytes> objects = EncodeObjects(6);
  int layers = static_cast<int>(
      LayeredCodec::Inspect(objects[0]).value().layer_end.size());

  // ~10 KB of encoded objects against 8 kB/s x 750 ms of deadline
  // runway: full quality cannot fit, base layers alone can.
  StreamId id = server_->OpenStream("consult", "dr-cohen", objects,
                                    Options(250000, 100000))
                    .value();
  ASSERT_TRUE(server_->AdvanceStreamsUntilIdle().ok());

  StreamStats stats = server_->StreamSessionStats(id).value();
  EXPECT_TRUE(stats.finished);
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.chunks_failed, 0u);
  // Quality degraded, continuity preserved: enhancements were shed...
  EXPECT_GT(stats.layers_dropped, 0u);
  EXPECT_GT(stats.enhancement_chunks_dropped, 0u);
  EXPECT_LT(stats.playout.MeanLayers(), static_cast<double>(layers));
  // ...but every object played, its base always on time (no stalls), and
  // at least the base layer was decodable each time.
  EXPECT_EQ(stats.playout.objects_played, 6u);
  EXPECT_EQ(stats.playout.stalls, 0u);
  EXPECT_GE(stats.playout.min_layers, 1);
  // Fewer bytes than full quality crossed the squeezed link.
  size_t full_bytes = 0;
  for (const Bytes& object : objects) full_bytes += object.size();
  EXPECT_LT(stats.bytes_sent, full_bytes);
}

TEST_F(StreamServerTest, LossyLinkStatsAreDeterministicForFixedSeed) {
  auto run = [&](uint64_t seed) {
    Build(seed);
    net::FaultSpec faults;
    faults.drop_probability = 0.10;
    EXPECT_TRUE(network_->SetFault(server_node_, client1_, faults).ok());
    StreamId id =
        server_->OpenStream("consult", "dr-cohen", EncodeObjects(4), Options())
            .value();
    EXPECT_TRUE(server_->AdvanceStreamsUntilIdle().ok());
    return server_->StreamSessionStats(id).value();
  };

  StreamStats a = run(1234);
  StreamStats b = run(1234);
  EXPECT_EQ(a.chunks_sent, b.chunks_sent);
  EXPECT_EQ(a.chunks_acked, b.chunks_acked);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.layers_dropped, b.layers_dropped);
  EXPECT_EQ(a.playout.stalls, b.playout.stalls);
  EXPECT_EQ(a.playout.total_stall_micros, b.playout.total_stall_micros);
  EXPECT_EQ(a.playout.layers_delivered_total, b.playout.layers_delivered_total);

  StreamStats c = run(99);  // a different seed may land elsewhere
  EXPECT_TRUE(c.finished || c.aborted);
}

TEST_F(StreamServerTest, StreamingMixesWithPropagateTraffic) {
  StreamId id =
      server_->OpenStream("consult", "dr-cohen", EncodeObjects(2), Options())
          .value();
  // A presentation choice mid-stream rides the same transport; its delta
  // must reach the other member and come back as a passthrough delivery.
  ASSERT_TRUE(server_->SubmitChoice("consult", "dr-levi", "CT", "hidden").ok());
  std::vector<net::Delivery> passthrough =
      server_->AdvanceStreamsUntilIdle().value();

  bool saw_delta = false;
  for (const net::Delivery& delivery : passthrough) {
    StreamId sid = 0;
    uint32_t seq = 0;
    EXPECT_FALSE(ParseChunkTag(delivery.tag, &sid, &seq))
        << "stream chunk leaked into passthrough: " << delivery.tag;
    if (delivery.tag == "presentation-delta") saw_delta = true;
  }
  EXPECT_TRUE(saw_delta);

  StreamStats stats = server_->StreamSessionStats(id).value();
  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(stats.playout.stalls, 0u);
  EXPECT_TRUE(server_->RoomConverged("consult"));
}

TEST_F(StreamServerTest, PlayoutBudgetSharesClientCacheHeadroom) {
  prefetch::ClientCache cache(64 << 10, prefetch::CachePolicy::kLru);
  ASSERT_TRUE(cache.Insert("CT/full", 48 << 10, 1.0).ok());
  ASSERT_TRUE(server_->AttachClientCache("consult", "dr-cohen", &cache).ok());

  StreamOptions options = Options();
  options.playout_buffer_bytes = 512 << 10;  // clamped to 16 KiB headroom
  StreamId id =
      server_->OpenStream("consult", "dr-cohen", EncodeObjects(3), options)
          .value();
  ASSERT_TRUE(server_->AdvanceStreamsUntilIdle().ok());

  StreamStats stats = server_->StreamSessionStats(id).value();
  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(stats.playout.stalls, 0u);
  // The buffer never grew past the cache's free headroom: streaming and
  // prefetch share the client's one buffer budget.
  EXPECT_LE(stats.playout.high_water_bytes, 16u << 10);

  cache.Lookup("CT/full");
  cache.Lookup("XRay/flat");
  prefetch::CacheStats room = server_->RoomCacheStats("consult").value();
  EXPECT_EQ(room.hits, 1u);
  EXPECT_EQ(room.misses, 1u);
  EXPECT_EQ(room.insertions, 1u);
}

TEST_F(StreamServerTest, OpenStreamValidation) {
  EXPECT_TRUE(server_
                  ->OpenStream("consult", "ghost", EncodeObjects(1), Options())
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(server_->OpenStream("no-room", "dr-cohen", EncodeObjects(1),
                                  Options())
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      server_->OpenStream("consult", "dr-cohen", {}, Options())
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(server_->StreamSessionStats(999).status().IsNotFound());

  StreamId id =
      server_->OpenStream("consult", "dr-cohen", EncodeObjects(1), Options())
          .value();
  EXPECT_EQ(server_->num_streams(), 1u);
  EXPECT_TRUE(server_->CloseStream(id).ok());
  EXPECT_EQ(server_->num_streams(), 0u);
  EXPECT_TRUE(server_->CloseStream(id).IsNotFound());
}

TEST(StreamSchedulerTest, RequiresTransportThroughServer) {
  Clock clock;
  net::Network network(&clock);
  net::NodeId server_node = network.AddNode("s");
  net::NodeId db_node = network.AddNode("db");
  net::NodeId client = network.AddNode("c");
  ASSERT_TRUE(network.SetDuplexLink(server_node, db_node, {50e6, 1000}).ok());
  ASSERT_TRUE(network.SetDuplexLink(server_node, client, {1e6, 20000}).ok());
  storage::DatabaseServer db;
  ASSERT_TRUE(db.RegisterStandardTypes().ok());
  server::InteractionServer server(&db, &network, server_node, db_node);
  ASSERT_TRUE(server
                  .OpenRoomWithDocument(
                      "consult", doc::MakeMedicalRecordDocument().value())
                  .ok());
  ASSERT_TRUE(server.Join("consult", {"dr-cohen", client}).ok());
  EXPECT_TRUE(server
                  .OpenStream("consult", "dr-cohen", EncodeObjects(1), {})
                  .status()
                  .IsFailedPrecondition());
}

// --- The drive loop ---

/// A scripted drive-loop participant: sends one message per tag in
/// `sends` on its first pump, consumes deliveries whose tag starts with
/// `consume_prefix`, and optionally "resolves" (like a stream playing its
/// last object) on the first pump at or after `resolve_at`.
class ScriptedParticipant : public DriveParticipant {
 public:
  ScriptedParticipant(net::ReliableTransport* transport, net::NodeId from,
                      net::NodeId to, std::vector<std::string> sends,
                      std::string consume_prefix, MicrosT resolve_at = -1)
      : transport_(transport),
        from_(from),
        to_(to),
        sends_(std::move(sends)),
        consume_prefix_(std::move(consume_prefix)),
        resolve_at_(resolve_at) {}

  void ObserveAcks() override {
    observed_after_pump = true;
    reaped = resolved;
    acks_observed = 0;
    for (net::MsgId id : sent_ids_) {
      if (transport_->StateOf(id).value_or(net::SendState::kInFlight) ==
          net::SendState::kAcked) {
        ++acks_observed;
      }
    }
  }

  size_t Pump(MicrosT now) override {
    observed_after_pump = false;
    pump_times.push_back(now);
    if (resolve_at_ >= 0 && now >= resolve_at_) resolved = true;
    for (const std::string& tag : sends_) {
      sent_ids_.push_back(transport_->Send(from_, to_, 100, tag).value().id);
    }
    size_t sent = sends_.size();
    sends_.clear();
    return sent;
  }

  MicrosT NextActionAt(MicrosT now) const override {
    return !resolved && resolve_at_ > now ? resolve_at_ : -1;
  }

  bool OnDelivery(const net::Delivery& delivery) override {
    offered.push_back(delivery.tag);
    return delivery.tag.rfind(consume_prefix_, 0) == 0;
  }

  std::vector<std::string> offered;
  std::vector<MicrosT> pump_times;
  size_t acks_observed = 0;
  bool observed_after_pump = false;
  bool resolved = false;
  bool reaped = false;

 private:
  net::ReliableTransport* transport_;
  net::NodeId from_, to_;
  std::vector<std::string> sends_;
  std::vector<net::MsgId> sent_ids_;
  std::string consume_prefix_;
  MicrosT resolve_at_;
};

class DriveLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&clock_);
    a_ = network_->AddNode("a");
    b_ = network_->AddNode("b");
    ASSERT_TRUE(network_->SetDuplexLink(a_, b_, {1e6, 5000}).ok());
    transport_ = std::make_unique<net::ReliableTransport>(network_.get());
  }

  Clock clock_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ReliableTransport> transport_;
  net::NodeId a_ = 0, b_ = 0;
};

TEST_F(DriveLoopTest, FirstConsumerWinsAndLeftoversKeepArrivalOrder) {
  const std::vector<std::string> sent = {"x:1", "mine:1", "x:2", "mine:2",
                                         "x:3"};
  const std::vector<std::string> declined = {"x:1", "x:2", "x:3"};
  ScriptedParticipant first(transport_.get(), a_, b_, sent, "mine:");
  ScriptedParticipant second(transport_.get(), a_, b_, {}, "never:");
  std::vector<net::Delivery> left =
      DriveUntilIdle(transport_.get(), {&first, &second});

  // The first participant saw everything; the second only what the
  // first declined, and that is what comes back, in arrival order.
  EXPECT_EQ(first.offered, sent);
  EXPECT_EQ(second.offered, declined);
  std::vector<std::string> left_tags;
  for (const net::Delivery& delivery : left) left_tags.push_back(delivery.tag);
  EXPECT_EQ(left_tags, declined);
  EXPECT_EQ(transport_->in_flight(), 0u);
  EXPECT_EQ(network_->pending(), 0u);
}

TEST_F(DriveLoopTest, PumpsBeforeAdvancingAndObservesAfterTheLastPump) {
  const MicrosT start = clock_.NowMicros();
  // `late` only resolves at its wake-up; `sender` ships two messages.
  ScriptedParticipant late(transport_.get(), a_, b_, {}, "late:",
                           start + 300000);
  ScriptedParticipant sender(transport_.get(), a_, b_, {"m:1", "m:2"}, "m:");
  DriveUntilIdle(transport_.get(), {&late, &sender});

  // The very first pump happens before any time passes.
  ASSERT_FALSE(sender.pump_times.empty());
  EXPECT_EQ(sender.pump_times.front(), start);
  EXPECT_EQ(late.pump_times.front(), start);
  // The resolving pump ran at the wake-up, and the loop did not return
  // before both participants observed acks after their last pump.
  EXPECT_EQ(late.pump_times.back(), start + 300000);
  EXPECT_TRUE(late.resolved);
  EXPECT_TRUE(late.reaped);
  EXPECT_TRUE(late.observed_after_pump);
  EXPECT_TRUE(sender.observed_after_pump);
  EXPECT_EQ(sender.acks_observed, 2u);
}

}  // namespace
}  // namespace mmconf::stream
