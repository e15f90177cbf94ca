#ifndef MMCONF_FANOUT_BROADCAST_H_
#define MMCONF_FANOUT_BROADCAST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "doc/tuning.h"
#include "fanout/compositor.h"
#include "fanout/relay_tree.h"
#include "media/image.h"
#include "net/network.h"
#include "net/reliable.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/drive.h"
#include "stream/scheduler.h"

namespace mmconf::fanout {

/// Session configuration.
struct BroadcastOptions {
  RelayTreeOptions tree;
  CompositorOptions compositor;
  /// Composed frames kept for re-delivery after a relay is reparented
  /// (the frames its dead upstream link may have eaten).
  size_t frame_history = 8;
  /// Template for the sampled viewers' composed streams. interval and
  /// start deadline are filled in per frame.
  stream::StreamOptions viewer_stream;
  /// First viewer-stream id. The default sits far above the federation
  /// tier's per-node striding (node i issues from i * 2^32 + 1), so a
  /// broadcast can share the tier's transport without id collisions.
  stream::StreamId first_stream_id = 1ull << 48;
  /// Install this session as the shared transport's failure callback
  /// (standalone use). Leave false when a director owns the callback
  /// and forwards failures via OnSendFailure.
  bool install_failure_callback = true;
};

/// One real, fully simulated audience member: its own network node and
/// lossy last-mile link off an edge relay, receiving the composed video
/// as an actual StreamScheduler stream per frame (so the bases-never-
/// dropped invariant is asserted on real scheduler accounting) and the
/// mixed audio as reliable messages.
struct SampledViewerStats {
  net::NodeId node = 0;
  net::NodeId edge = 0;
  doc::BandwidthLevel level = doc::BandwidthLevel::kHigh;
  size_t frames_delivered = 0;  ///< composed video streams finished
  size_t frames_aborted = 0;    ///< streams that lost a base chunk (bad)
  size_t audio_messages = 0;
  size_t audio_bytes = 0;
};

/// Aggregate accounting of one broadcast (the EXPERIMENTS P8 numbers).
struct BroadcastStats {
  size_t frames = 0;            ///< frames pushed by the origin
  size_t audience = 0;          ///< aggregated (modeled) viewers
  size_t sampled_viewers = 0;   ///< real simulated viewers
  size_t relays = 0;
  size_t tree_edges = 0;
  size_t rebuilds = 0;          ///< reparent operations survived
  /// Measured on the Network: bytes the origin transmitted onto its
  /// first-hop links. Bounded by fanout x composed bytes per frame —
  /// sub-linear in the audience (the tentpole claim).
  size_t server_egress_bytes = 0;
  /// Measured bytes over every current tree edge (shared subpaths
  /// priced once each).
  size_t tree_wire_bytes = 0;
  /// Modeled edge-to-audience bytes: each aggregated viewer receives its
  /// class's composed frame once. This is the only term linear in the
  /// audience, and it is last-hop traffic no distribution scheme avoids.
  size_t modeled_last_hop_bytes = 0;
  /// What the origin's egress would have been without the tree: every
  /// viewer (aggregated + sampled) served its composed stream directly.
  size_t unicast_equiv_bytes = 0;
  size_t streams_opened = 0;    ///< sampled-viewer composed streams
  size_t streams_finished = 0;
  /// Streams aborted because a BASE chunk exhausted its retry budget.
  /// The no-base-drop acceptance gate asserts this stays 0 under
  /// injected loss (enhancement shedding is allowed and counted below).
  size_t streams_aborted = 0;
  size_t chunks_failed = 0;
  size_t enhancement_layers_dropped = 0;
  size_t audio_messages = 0;
  size_t audio_failures = 0;
  bool all_finished = false;    ///< every sampled stream resolved
};

/// A lecture/webinar broadcast: one hosting interaction node (the
/// origin) composes the room into one layered stream per bandwidth
/// class (Compositor) and replicates it one-to-many over a RelayTree
/// instead of once per viewer. View-only clients never join the room —
/// edge relays aggregate them; a handful of *sampled* viewers are
/// simulated end-to-end through the real stream::StreamScheduler so
/// delivery invariants are measured, not assumed.
///
/// Like every subsystem here the session owns no threads: it is a
/// participant of the drive loop (stream/drive.h) — alone via Settle(),
/// or next to the tier's nodes under a BroadcastDirector.
class BroadcastSession final : public stream::DriveParticipant {
 public:
  /// `network` and `transport` must outlive the session. `origin` is the
  /// hosting node (feeds the tree); `label` namespaces relay/viewer node
  /// names and wire tags so several sessions can share a transport.
  BroadcastSession(net::Network* network, net::ReliableTransport* transport,
                   net::NodeId origin, std::string label,
                   BroadcastOptions options = {});

  BroadcastSession(const BroadcastSession&) = delete;
  BroadcastSession& operator=(const BroadcastSession&) = delete;

  /// Builds the relay tree sized for `expected_audience` viewers. Must
  /// be called once, before any admission or frame.
  Status OpenAudience(size_t expected_audience);

  /// Front-door admission of `count` aggregated view-only clients of one
  /// bandwidth class: spreads them over the edge relays; their delivery
  /// is modeled (billed in modeled_last_hop_bytes), not simulated.
  Status AdmitAudience(size_t count, doc::BandwidthLevel level);

  /// Admits one real simulated viewer: adds a network node, hangs it off
  /// the least-loaded edge relay over `last_mile` with `faults` injected
  /// on the downstream direction, and returns the node id. Every frame
  /// reaching that edge opens a real composed stream toward it.
  Result<net::NodeId> AdmitSampledViewer(doc::BandwidthLevel level,
                                         const net::LinkSpec& last_mile,
                                         const net::FaultSpec& faults);

  /// Composes the next frame from the room's visible images and speaker
  /// tracks and sends one copy per first-hop relay (all three bandwidth
  /// classes ride the tree; edges pick what their viewers need).
  /// FailedPrecondition before OpenAudience or while paused.
  Status PushFrame(const std::vector<media::Image>& images,
                   const std::vector<SpeakerTrack>& tracks);

  /// Handles a transport delivery-failure. A dead tree link reparents
  /// the orphaned relay's subtree and re-sends the recent frame history
  /// down the new link. True when the failure was this session's.
  bool OnSendFailure(const net::FailedMessage& failure);

  /// --- stream::DriveParticipant ---

  /// Routes one application-level delivery: relay store-and-forward,
  /// edge fan-out to sampled viewers, viewer-side audio receipt, and
  /// chunk deliveries of this session's streams. True when consumed.
  bool OnDelivery(const net::Delivery& delivery) override;
  /// Also folds resolved streams into the totals (and closes them).
  void ObserveAcks() override;
  size_t Pump(MicrosT now) override;
  MicrosT NextActionAt(MicrosT now) const override;

  /// True when every sampled-viewer stream has resolved.
  bool Idle() const;

  /// stream::DriveUntilIdle over this session alone; unconsumed
  /// deliveries are dropped.
  Status Settle();

  /// --- migration support ---

  /// Stops frame production so in-flight streams drain at a chunk
  /// boundary (drive to idle afterwards — under a director, its Settle).
  Status PauseAtChunkBoundary();
  bool paused() const { return paused_; }

  /// Re-roots the tree at the room's new hosting node and resumes frame
  /// production. FailedPrecondition unless paused.
  Status ResumeAt(net::NodeId new_origin);

  net::NodeId origin() const { return origin_; }
  const std::string& label() const { return label_; }
  uint32_t next_frame() const { return next_frame_; }
  const RelayTree* tree() const { return tree_.get(); }
  const Compositor& compositor() const { return compositor_; }
  const BroadcastOptions& options() const { return options_; }

  BroadcastStats Stats() const;
  Result<SampledViewerStats> ViewerStats(net::NodeId viewer) const;

  /// Publishes session activity into the obs layer: `fanout.*` counters
  /// (frames, relay forwards, reparents, history re-sends, streams,
  /// audio messages), the composed-frame wire-bytes histogram, and
  /// origin-side trace instants. Forwarded to the compositor (mix.*)
  /// and every edge scheduler. Either pointer may be null.
  void SetObserver(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

 private:
  struct HistoryEntry {
    uint32_t index = 0;
    bool valid = false;
    /// One serialized payload + tag per bandwidth class.
    std::vector<std::pair<std::string, Bytes>> sends;
  };

  struct ParsedFrame {
    uint32_t index = 0;
    doc::BandwidthLevel level = doc::BandwidthLevel::kHigh;
    std::vector<int> active_speakers;
    Bytes video;
    Bytes audio;
  };

  static Bytes SerializeFrame(const ComposedFrame& frame);
  static Result<ParsedFrame> ParseFrame(const Bytes& payload);

  /// Sends one serialized frame over a tree link.
  Status SendFrame(net::NodeId from, net::NodeId to, const std::string& tag,
                   const Bytes& payload);
  /// Edge-relay handling: open composed streams toward the sampled
  /// viewers of the frame's class and ship them the mixed audio.
  Status DeliverAtEdge(net::NodeId edge, const ParsedFrame& frame,
                       MicrosT now);
  /// Folds finished/aborted streams into the totals and closes them.
  void ReapStreams();
  stream::StreamScheduler* SchedulerFor(net::NodeId edge);

  net::Network* network_;
  net::ReliableTransport* transport_;
  net::NodeId origin_;
  std::string label_;
  BroadcastOptions options_;
  Compositor compositor_;
  std::unique_ptr<RelayTree> tree_;
  bool paused_ = false;
  uint32_t next_frame_ = 0;
  std::vector<HistoryEntry> history_;
  std::string frame_tag_prefix_;  ///< "fo:f:<label>:"
  std::string audio_tag_prefix_;  ///< "fo:a:<label>:"
  /// Per relay, (frame, level) keys already forwarded — dedup against
  /// history re-sends after a reparent (bounded, oldest evicted).
  std::map<net::NodeId, std::set<uint64_t>> seen_frames_;

  std::map<net::NodeId, std::unique_ptr<stream::StreamScheduler>>
      schedulers_;
  std::map<net::NodeId, SampledViewerStats> viewers_;
  size_t audience_[3] = {0, 0, 0};  ///< aggregated viewers per class
  size_t sampled_[3] = {0, 0, 0};
  stream::StreamId next_stream_id_;

  // Accounting folded from closed streams plus push-side modeling.
  size_t frames_pushed_ = 0;
  size_t modeled_last_hop_bytes_ = 0;
  size_t unicast_equiv_bytes_ = 0;
  size_t streams_opened_ = 0;
  size_t streams_finished_ = 0;
  size_t streams_aborted_ = 0;
  size_t chunks_failed_ = 0;
  size_t enhancement_layers_dropped_ = 0;
  size_t audio_messages_ = 0;
  size_t audio_failures_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_frames_ = nullptr;
  obs::Counter* m_forwards_ = nullptr;
  obs::Counter* m_reparents_ = nullptr;
  obs::Counter* m_resends_ = nullptr;
  obs::Counter* m_streams_ = nullptr;
  obs::Counter* m_audio_ = nullptr;
  obs::Histogram* m_frame_bytes_ = nullptr;
};

}  // namespace mmconf::fanout

#endif  // MMCONF_FANOUT_BROADCAST_H_
