// Broadcast fan-out at scale: what the relay tree buys over per-viewer
// unicast as the audience grows 1k -> 100k. Each sweep point hosts a
// BroadcastSession, admits an aggregated audience split across the
// three bandwidth classes plus a few fully simulated viewers on lossy
// last-mile links, pushes composed frames through the tree, and — at
// the larger points — hard-partitions a relay's upstream link mid-run
// so the reparent + history-replay repair path is on the measured path.
//
// The headline columns: server egress stays O(fanout) while the
// unicast-equivalent bytes grow linearly with the audience, and the
// only audience-linear term left is the modeled last hop every
// distribution scheme pays. The no-base-drop invariant is asserted on
// the sampled viewers' real scheduler streams.
//
// Results are printed and written as machine-readable JSON (to
// --json_out=PATH). --smoke runs a shrunk sweep and exits nonzero when a
// stream aborts (base-layer loss), a session fails to drain, the tree
// fails to undercut unicast, or the JSON cannot be written.
//
// --metrics_out=PATH dumps the obs MetricsRegistry snapshot (fanout.*
// and mix.* counters included) and --trace_out=PATH a Chrome
// trace_event timeline with push/reparent instants.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "doc/tuning.h"
#include "fanout/broadcast.h"
#include "fanout/compositor.h"
#include "harness.h"
#include "media/synthetic.h"
#include "net/network.h"
#include "net/reliable.h"

namespace {

using namespace mmconf;

/// Frame inputs shared by every sweep point: two phantom-CT image
/// objects and two speakers with full-coverage speech segmentation.
struct FrameSource {
  std::vector<media::Image> images;
  media::AudioSignal voice_a, voice_b;
  std::vector<fanout::SpeakerTrack> tracks;

  FrameSource() {
    Rng rng(17);
    images.push_back(media::MakePhantomCt({64, 64, 3, 2.0}, rng));
    images.push_back(media::MakePhantomCt({64, 64, 2, 2.0}, rng));
    voice_a = media::AudioSignal(std::vector<float>(64000, 0.3f), 8000);
    voice_b = media::AudioSignal(std::vector<float>(64000, -0.2f), 8000);
    tracks.push_back(Track(1, &voice_a, 64000));
    tracks.push_back(Track(2, &voice_b, 32000));
  }

  static fanout::SpeakerTrack Track(int speaker,
                                    const media::AudioSignal* signal,
                                    size_t speech_samples) {
    fanout::SpeakerTrack track;
    track.speaker = speaker;
    track.signal = signal;
    media::AudioSegment segment;
    segment.begin = 0;
    segment.end = speech_samples;
    segment.cls = media::AudioClass::kSpeech;
    segment.speaker = speaker;
    track.segments.push_back(segment);
    return track;
  }
};

fanout::BroadcastOptions LectureOptions() {
  fanout::BroadcastOptions options;
  options.tree.fanout = 8;
  options.tree.viewers_per_edge = 1024;
  options.compositor.high_px = 64;
  options.compositor.medium_px = 32;
  options.compositor.low_px = 16;
  return options;
}

struct FanoutRow {
  size_t audience = 0;
  size_t frames = 0;
  size_t relays = 0;
  size_t rebuilds = 0;
  size_t server_egress_bytes = 0;
  size_t tree_wire_bytes = 0;
  size_t modeled_last_hop_bytes = 0;
  size_t unicast_equiv_bytes = 0;
  double per_viewer_bytes = 0;  ///< last-hop bytes / audience
  size_t streams_opened = 0;
  size_t streams_aborted = 0;
  size_t enhancement_dropped = 0;
  bool no_base_drops = false;
  bool all_finished = false;
};

FanoutRow RunPoint(size_t audience, size_t frames, bool inject_failure,
                   const FrameSource& source, const bench::ObsSinks& sinks,
                   int index) {
  Clock clock;
  net::Network network(&clock, 4242);
  if (sinks.enabled()) sinks.BeginFleet(&clock, index);
  net::NodeId origin = network.AddNode("origin");
  net::RetryPolicy retry;
  retry.initial_timeout_micros = 150000;
  retry.max_attempts = 4;
  net::ReliableTransport transport(&network, retry);

  fanout::BroadcastSession session(&network, &transport, origin, "lecture",
                                   LectureOptions());
  session.SetObserver(sinks.metrics, sinks.tracer);
  session.OpenAudience(audience).ok();
  // Class split: half the audience on the high tier, the rest across
  // medium and low — every class exercises its own composed stream.
  session.AdmitAudience(audience / 2, doc::BandwidthLevel::kHigh).ok();
  session.AdmitAudience(audience * 3 / 10, doc::BandwidthLevel::kMedium)
      .ok();
  session
      .AdmitAudience(audience - audience / 2 - audience * 3 / 10,
                     doc::BandwidthLevel::kLow)
      .ok();
  net::FaultSpec lossy;
  lossy.drop_probability = 0.05;
  std::vector<net::NodeId> viewers = {
      session
          .AdmitSampledViewer(doc::BandwidthLevel::kHigh, {1e6, 20000},
                              lossy)
          .value(),
      session
          .AdmitSampledViewer(doc::BandwidthLevel::kMedium, {1e6, 20000},
                              lossy)
          .value(),
      session
          .AdmitSampledViewer(doc::BandwidthLevel::kLow, {5e5, 30000},
                              lossy)
          .value(),
  };

  for (size_t frame = 0; frame < frames; ++frame) {
    session.PushFrame(source.images, source.tracks).ok();
    session.Settle().ok();
    if (inject_failure && frame + 1 == frames / 2 &&
        session.tree()->edge_relays().size() > 1) {
      // Kill a loaded edge relay's upstream link mid-broadcast: the next
      // frame exhausts its retries there, the failure callback re-hangs
      // the subtree, and the history replay recovers the frames the dead
      // link ate.
      net::NodeId edge = session.tree()->edge_relays()[0];
      net::NodeId parent = session.tree()->ParentOf(edge).value();
      network.Partition(parent, edge);
    }
  }

  fanout::BroadcastStats stats = session.Stats();
  FanoutRow row;
  row.audience = stats.audience;
  row.frames = stats.frames;
  row.relays = stats.relays;
  row.rebuilds = stats.rebuilds;
  row.server_egress_bytes = stats.server_egress_bytes;
  row.tree_wire_bytes = stats.tree_wire_bytes;
  row.modeled_last_hop_bytes = stats.modeled_last_hop_bytes;
  row.unicast_equiv_bytes = stats.unicast_equiv_bytes;
  row.per_viewer_bytes =
      stats.audience > 0
          ? static_cast<double>(stats.modeled_last_hop_bytes) /
                static_cast<double>(stats.audience)
          : 0;
  row.streams_opened = stats.streams_opened;
  row.streams_aborted = stats.streams_aborted;
  row.enhancement_dropped = stats.enhancement_layers_dropped;
  row.no_base_drops = stats.streams_aborted == 0;
  row.all_finished = stats.all_finished;
  for (net::NodeId viewer : viewers) {
    fanout::SampledViewerStats vs = session.ViewerStats(viewer).value();
    row.all_finished = row.all_finished && vs.frames_delivered == frames;
  }
  return row;
}

std::vector<FanoutRow> RunAudienceSweep(bool smoke,
                                        const bench::ObsSinks& sinks = {}) {
  const size_t frames = smoke ? 3 : 5;
  std::vector<size_t> audiences = smoke
                                      ? std::vector<size_t>{1000, 10000}
                                      : std::vector<size_t>{1000, 10000,
                                                            100000};
  FrameSource source;
  std::vector<FanoutRow> rows;
  std::printf("== broadcast: composed lecture stream over a fan-out tree "
              "(%zu frames, %s) ==\n",
              frames, smoke ? "smoke" : "full");
  std::printf("%-9s %-7s %-9s %-11s %-11s %-12s %-13s %-9s %-7s %-5s\n",
              "audience", "relays", "rebuilds", "egress(B)", "tree(B)",
              "lasthop(B)", "unicast(B)", "B/viewer", "abort", "ok");
  int index = 0;
  for (size_t audience : audiences) {
    FanoutRow row = RunPoint(audience, frames, /*inject_failure=*/true,
                             source, sinks, index++);
    std::printf("%-9zu %-7zu %-9zu %-11zu %-11zu %-12zu %-13zu %-9.0f "
                "%-7zu %s\n",
                row.audience, row.relays, row.rebuilds,
                row.server_egress_bytes, row.tree_wire_bytes,
                row.modeled_last_hop_bytes, row.unicast_equiv_bytes,
                row.per_viewer_bytes, row.streams_aborted,
                row.no_base_drops && row.all_finished ? "yes" : "NO");
    rows.push_back(row);
  }
  return rows;
}

std::string JsonRow(const FanoutRow& row) {
  return bench::Format(
      "{\"audience\": %zu, \"frames\": %zu, \"relays\": %zu, "
      "\"rebuilds\": %zu, \"server_egress_bytes\": %zu, "
      "\"tree_wire_bytes\": %zu, \"modeled_last_hop_bytes\": %zu, "
      "\"unicast_equiv_bytes\": %zu, \"per_viewer_bytes\": %.1f, "
      "\"streams_opened\": %zu, \"streams_aborted\": %zu, "
      "\"enhancement_dropped\": %zu, \"no_base_drops\": %s, "
      "\"all_finished\": %s}",
      row.audience, row.frames, row.relays, row.rebuilds,
      row.server_egress_bytes, row.tree_wire_bytes, row.modeled_last_hop_bytes,
      row.unicast_equiv_bytes, row.per_viewer_bytes, row.streams_opened,
      row.streams_aborted, row.enhancement_dropped,
      row.no_base_drops ? "true" : "false",
      row.all_finished ? "true" : "false");
}

void BM_ComposeFrame(benchmark::State& state) {
  // One full composition: mix the active speakers, mosaic the images,
  // and encode all three bandwidth classes. The arg is the high-tier
  // mosaic side; the lower tiers scale with it.
  int side = static_cast<int>(state.range(0));
  fanout::CompositorOptions options;
  options.high_px = side;
  options.medium_px = side / 2;
  options.low_px = side / 4;
  fanout::Compositor compositor(options);
  FrameSource source;
  uint32_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compositor.ComposeFrame(frame++ % 8, source.images, source.tracks)
            .value());
  }
}
BENCHMARK(BM_ComposeFrame)->Arg(64)->Arg(128)->Arg(256);

void BM_PushFrameThroughTree(benchmark::State& state) {
  // Push + settle of one composed frame over the tree for an audience of
  // `arg` — the per-frame wall the origin pays, independent of how many
  // aggregated viewers the edges carry.
  size_t audience = static_cast<size_t>(state.range(0));
  Clock clock;
  net::Network network(&clock, 4242);
  net::NodeId origin = network.AddNode("origin");
  net::ReliableTransport transport(&network);
  fanout::BroadcastSession session(&network, &transport, origin, "lecture",
                                   LectureOptions());
  session.OpenAudience(audience).ok();
  session.AdmitAudience(audience, doc::BandwidthLevel::kMedium).ok();
  FrameSource source;
  for (auto _ : state) {
    session.PushFrame(source.images, source.tracks).ok();
    session.Settle().ok();
  }
}
BENCHMARK(BM_PushFrameThroughTree)->Arg(1000)->Arg(10000);

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(/*traced=*/true);
  if (!harness.Start(argc, argv)) return 1;
  std::vector<FanoutRow> rows =
      RunAudienceSweep(harness.smoke(), harness.sinks());
  bool healthy = true;
  for (const FanoutRow& row : rows) {
    healthy = healthy && row.no_base_drops && row.all_finished &&
              row.server_egress_bytes < row.unicast_equiv_bytes;
  }
  // The tentpole claim, asserted across the sweep: egress grows far
  // slower than the audience (sub-linear; with a fixed-fanout tree it
  // is near flat while the audience grows 10x per point).
  if (rows.size() >= 2) {
    const FanoutRow& first = rows.front();
    const FanoutRow& last = rows.back();
    double audience_ratio = static_cast<double>(last.audience) /
                            static_cast<double>(first.audience);
    double egress_ratio =
        static_cast<double>(last.server_egress_bytes) /
        static_cast<double>(first.server_egress_bytes);
    healthy = healthy && egress_ratio < audience_ratio / 2.0;
  }
  return harness.Finish(
      healthy,
      bench::MakeReport("broadcast_audience_sweep", "sweep", rows, JsonRow));
}
