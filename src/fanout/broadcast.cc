#include "fanout/broadcast.h"

#include <algorithm>
#include <set>
#include <utility>

namespace mmconf::fanout {

namespace {

/// Wire framing on top of a frame payload / audio payload.
constexpr size_t kFrameOverheadBytes = 32;
constexpr size_t kAudioOverheadBytes = 16;

size_t LevelIdx(doc::BandwidthLevel level) {
  return static_cast<size_t>(static_cast<int>(level));
}

}  // namespace

BroadcastSession::BroadcastSession(net::Network* network,
                                   net::ReliableTransport* transport,
                                   net::NodeId origin, std::string label,
                                   BroadcastOptions options)
    : network_(network),
      transport_(transport),
      origin_(origin),
      label_(std::move(label)),
      options_(std::move(options)),
      compositor_(options_.compositor),
      next_stream_id_(options_.first_stream_id) {
  if (options_.frame_history == 0) options_.frame_history = 1;
  history_.resize(options_.frame_history);
  frame_tag_prefix_ = "fo:f:" + label_ + ":";
  audio_tag_prefix_ = "fo:a:" + label_ + ":";
  if (options_.install_failure_callback) {
    transport_->SetFailureCallback([this](const net::FailedMessage& failure) {
      OnSendFailure(failure);
    });
  }
}

Status BroadcastSession::OpenAudience(size_t expected_audience) {
  if (tree_ != nullptr) {
    return Status::FailedPrecondition("broadcast audience already open");
  }
  tree_ = std::make_unique<RelayTree>(network_, origin_, label_,
                                      options_.tree);
  Status built = tree_->Build(expected_audience);
  if (!built.ok()) {
    tree_.reset();
    return built;
  }
  return Status::OK();
}

Status BroadcastSession::AdmitAudience(size_t count,
                                       doc::BandwidthLevel level) {
  if (tree_ == nullptr) {
    return Status::FailedPrecondition("open the audience first");
  }
  MMCONF_RETURN_IF_ERROR(tree_->AssignAudience(count));
  audience_[LevelIdx(level)] += count;
  return Status::OK();
}

Result<net::NodeId> BroadcastSession::AdmitSampledViewer(
    doc::BandwidthLevel level, const net::LinkSpec& last_mile,
    const net::FaultSpec& faults) {
  if (tree_ == nullptr) {
    return Status::FailedPrecondition("open the audience first");
  }
  MMCONF_ASSIGN_OR_RETURN(net::NodeId edge, tree_->AssignViewer());
  net::NodeId node = network_->AddNode(
      "viewer-" + label_ + "-" + std::to_string(viewers_.size()));
  MMCONF_RETURN_IF_ERROR(network_->SetDuplexLink(edge, node, last_mile));
  // Loss is injected downstream only: the last mile eats data, the ack
  // path stays clean — the adversarial case for base-layer delivery.
  MMCONF_RETURN_IF_ERROR(network_->SetFault(edge, node, faults));
  SampledViewerStats viewer;
  viewer.node = node;
  viewer.edge = edge;
  viewer.level = level;
  viewers_[node] = viewer;
  ++sampled_[LevelIdx(level)];
  SchedulerFor(edge);  // stand the edge's scheduler up front
  return node;
}

Bytes BroadcastSession::SerializeFrame(const ComposedFrame& frame) {
  ByteWriter writer;
  writer.PutU32(frame.index);
  writer.PutU8(static_cast<uint8_t>(static_cast<int>(frame.level)));
  writer.PutVarint(frame.active_speakers.size());
  for (int speaker : frame.active_speakers) writer.PutI32(speaker);
  writer.PutBytes(frame.video);
  writer.PutBytes(frame.audio);
  return writer.Take();
}

Result<BroadcastSession::ParsedFrame> BroadcastSession::ParseFrame(
    const Bytes& payload) {
  ByteReader reader(payload);
  ParsedFrame frame;
  MMCONF_ASSIGN_OR_RETURN(frame.index, reader.GetU32());
  MMCONF_ASSIGN_OR_RETURN(uint8_t level, reader.GetU8());
  if (level > 2) return Status::Corruption("bad bandwidth level in frame");
  frame.level = static_cast<doc::BandwidthLevel>(level);
  MMCONF_ASSIGN_OR_RETURN(uint64_t speakers, reader.GetVarint());
  if (speakers > 1024) return Status::Corruption("absurd speaker count");
  frame.active_speakers.reserve(speakers);
  for (uint64_t i = 0; i < speakers; ++i) {
    MMCONF_ASSIGN_OR_RETURN(int32_t speaker, reader.GetI32());
    frame.active_speakers.push_back(speaker);
  }
  MMCONF_ASSIGN_OR_RETURN(frame.video, reader.GetBytes());
  MMCONF_ASSIGN_OR_RETURN(frame.audio, reader.GetBytes());
  return frame;
}

Status BroadcastSession::SendFrame(net::NodeId from, net::NodeId to,
                                   const std::string& tag,
                                   const Bytes& payload) {
  MMCONF_RETURN_IF_ERROR(
      transport_
          ->Send(from, to, payload.size() + kFrameOverheadBytes, tag,
                 payload)
          .status());
  if (from != origin_ && m_forwards_ != nullptr) m_forwards_->Add();
  return Status::OK();
}

Status BroadcastSession::PushFrame(const std::vector<media::Image>& images,
                                   const std::vector<SpeakerTrack>& tracks) {
  if (tree_ == nullptr) {
    return Status::FailedPrecondition("open the audience first");
  }
  if (paused_) {
    return Status::FailedPrecondition(
        "broadcast is paused at a chunk boundary (migrating)");
  }
  uint32_t index = next_frame_++;
  MMCONF_ASSIGN_OR_RETURN(
      std::vector<ComposedFrame> frames,
      compositor_.ComposeFrame(index, images, tracks));

  HistoryEntry& slot = history_[index % history_.size()];
  slot.index = index;
  slot.valid = true;
  slot.sends.clear();

  std::vector<net::NodeId> first_hop = tree_->ChildrenOf(origin_);
  for (const ComposedFrame& frame : frames) {
    Bytes payload = SerializeFrame(frame);
    std::string tag = frame_tag_prefix_ + std::to_string(index) + ":" +
                      std::to_string(static_cast<int>(frame.level));
    size_t level = LevelIdx(frame.level);
    // The audience-linear term lives only on the modeled last hop; the
    // origin pays fanout copies, never one per viewer.
    modeled_last_hop_bytes_ += payload.size() * audience_[level];
    unicast_equiv_bytes_ +=
        (payload.size() + kFrameOverheadBytes) *
        (audience_[level] + sampled_[level]);
    if (m_frame_bytes_ != nullptr) {
      m_frame_bytes_->Observe(static_cast<int64_t>(payload.size()));
    }
    for (net::NodeId child : first_hop) {
      MMCONF_RETURN_IF_ERROR(SendFrame(origin_, child, tag, payload));
    }
    slot.sends.emplace_back(std::move(tag), std::move(payload));
  }
  ++frames_pushed_;
  if (m_frames_ != nullptr) m_frames_->Add();
  if (tracer_ != nullptr) {
    tracer_->Instant(origin_, 0, "push_frame", "fanout", "frame",
                     static_cast<int64_t>(index));
  }
  return Status::OK();
}

stream::StreamScheduler* BroadcastSession::SchedulerFor(net::NodeId edge) {
  auto it = schedulers_.find(edge);
  if (it == schedulers_.end()) {
    auto scheduler =
        std::make_unique<stream::StreamScheduler>(transport_, edge);
    scheduler->SetObserver(metrics_, tracer_);
    it = schedulers_.emplace(edge, std::move(scheduler)).first;
  }
  return it->second.get();
}

Status BroadcastSession::DeliverAtEdge(net::NodeId edge,
                                       const ParsedFrame& frame,
                                       MicrosT now) {
  stream::StreamScheduler* scheduler = nullptr;
  for (auto& [node, viewer] : viewers_) {
    if (viewer.edge != edge || viewer.level != frame.level) continue;
    if (scheduler == nullptr) scheduler = SchedulerFor(edge);
    stream::StreamOptions stream_options = options_.viewer_stream;
    stream_options.interval_micros =
        options_.compositor.frame_interval_micros;
    stream_options.start_deadline_micros =
        now + stream_options.interval_micros;
    MMCONF_RETURN_IF_ERROR(
        scheduler
            ->Open(next_stream_id_++, viewer.node, {frame.video},
                   stream_options)
            .status());
    ++streams_opened_;
    if (m_streams_ != nullptr) m_streams_->Add();
    MMCONF_RETURN_IF_ERROR(
        transport_
            ->Send(edge, viewer.node,
                   frame.audio.size() + kAudioOverheadBytes,
                   audio_tag_prefix_ + std::to_string(frame.index),
                   frame.audio)
            .status());
    ++audio_messages_;
    if (m_audio_ != nullptr) m_audio_->Add();
  }
  return Status::OK();
}

bool BroadcastSession::OnDelivery(const net::Delivery& delivery) {
  if (delivery.tag.rfind(frame_tag_prefix_, 0) == 0) {
    if (tree_ == nullptr || !tree_->IsRelay(delivery.to)) return true;
    Result<ParsedFrame> parsed = ParseFrame(delivery.payload);
    if (!parsed.ok()) return true;  // corrupt frame: drop, do not forward
    // A reparented relay can receive a history re-send for a frame the
    // dying link already delivered; forwarding it again would ripple
    // duplicate streams down the subtree. Dedup on (frame, level).
    static constexpr size_t kSeenCap = 256;
    uint64_t key = (static_cast<uint64_t>(parsed->index) << 2) |
                   static_cast<uint64_t>(LevelIdx(parsed->level));
    std::set<uint64_t>& seen = seen_frames_[delivery.to];
    if (!seen.insert(key).second) return true;
    while (seen.size() > kSeenCap) seen.erase(seen.begin());

    for (net::NodeId child : tree_->ChildrenOf(delivery.to)) {
      SendFrame(delivery.to, child, delivery.tag, delivery.payload).ok();
    }
    if (tree_->IsEdge(delivery.to)) {
      DeliverAtEdge(delivery.to, *parsed, delivery.delivered_at).ok();
    }
    return true;
  }
  if (delivery.tag.rfind(audio_tag_prefix_, 0) == 0) {
    auto it = viewers_.find(delivery.to);
    if (it != viewers_.end()) {
      ++it->second.audio_messages;
      it->second.audio_bytes += delivery.bytes;
    }
    return true;
  }
  if (delivery.tag.rfind("sc:", 0) == 0) {
    for (auto& [edge, scheduler] : schedulers_) {
      if (scheduler->OnDelivery(delivery)) return true;
    }
  }
  return false;
}

bool BroadcastSession::OnSendFailure(const net::FailedMessage& failure) {
  if (failure.tag.rfind(frame_tag_prefix_, 0) == 0) {
    if (tree_ == nullptr || !tree_->IsRelay(failure.to)) return true;
    Result<net::NodeId> parent = tree_->ParentOf(failure.to);
    if (!parent.ok()) return true;
    if (*parent == failure.from) {
      // The orphan still hangs off the dead link: re-hang its subtree.
      Result<net::NodeId> reparented = tree_->Reparent(failure.to);
      if (!reparented.ok()) return true;  // nowhere left to hang it
      parent = *reparented;
      if (m_reparents_ != nullptr) m_reparents_->Add();
      if (tracer_ != nullptr) {
        tracer_->Instant(failure.from, 0, "reparent", "fanout", "relay",
                         static_cast<int64_t>(failure.to));
      }
    }
    // Replay the recent frame history down the (new) link — the frames
    // the dead link may have eaten. The seen-set dedup on the far side
    // drops anything that did get through.
    std::vector<const HistoryEntry*> entries;
    for (const HistoryEntry& entry : history_) {
      if (entry.valid) entries.push_back(&entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const HistoryEntry* a, const HistoryEntry* b) {
                return a->index < b->index;
              });
    for (const HistoryEntry* entry : entries) {
      for (const auto& [tag, payload] : entry->sends) {
        SendFrame(*parent, failure.to, tag, payload).ok();
        if (m_resends_ != nullptr) m_resends_->Add();
      }
    }
    return true;
  }
  if (failure.tag.rfind(audio_tag_prefix_, 0) == 0) {
    ++audio_failures_;
    return true;
  }
  if (failure.tag.rfind("sc:", 0) == 0 &&
      schedulers_.count(failure.from) > 0) {
    // A chunk of one of this session's composed streams: the scheduler
    // folds the failure in via ObserveAcks; nothing to dispatch.
    return true;
  }
  return false;
}

void BroadcastSession::ObserveAcks() {
  for (auto& [edge, scheduler] : schedulers_) scheduler->ObserveAcks();
  ReapStreams();
}

size_t BroadcastSession::Pump(MicrosT now) {
  size_t sent = 0;
  for (auto& [edge, scheduler] : schedulers_) sent += scheduler->Pump(now);
  return sent;
}

MicrosT BroadcastSession::NextActionAt(MicrosT now) const {
  MicrosT wake = -1;
  for (const auto& [edge, scheduler] : schedulers_) {
    MicrosT at = scheduler->NextActionAt(now);
    if (at >= 0 && (wake < 0 || at < wake)) wake = at;
  }
  return wake;
}

bool BroadcastSession::Idle() const {
  for (const auto& [edge, scheduler] : schedulers_) {
    if (!scheduler->Idle()) return false;
  }
  return true;
}

void BroadcastSession::ReapStreams() {
  for (auto& [edge, scheduler] : schedulers_) {
    for (const stream::StreamStats& stats : scheduler->AllStats()) {
      if (!stats.finished && !stats.aborted) continue;
      if (stats.finished) ++streams_finished_;
      if (stats.aborted) ++streams_aborted_;
      chunks_failed_ += stats.chunks_failed;
      enhancement_layers_dropped_ += stats.layers_dropped;
      auto viewer = viewers_.find(stats.client);
      if (viewer != viewers_.end()) {
        if (stats.finished) ++viewer->second.frames_delivered;
        if (stats.aborted) ++viewer->second.frames_aborted;
      }
      scheduler->Close(stats.id).ok();
    }
  }
}

Status BroadcastSession::Settle() {
  stream::DriveUntilIdle(transport_, {this});
  return Status::OK();
}

Status BroadcastSession::PauseAtChunkBoundary() {
  if (tree_ == nullptr) {
    return Status::FailedPrecondition("open the audience first");
  }
  paused_ = true;
  return Status::OK();
}

Status BroadcastSession::ResumeAt(net::NodeId new_origin) {
  if (!paused_) {
    return Status::FailedPrecondition(
        "resume requires a paused broadcast (PauseAtChunkBoundary first)");
  }
  MMCONF_RETURN_IF_ERROR(tree_->Reroot(new_origin));
  origin_ = new_origin;
  paused_ = false;
  return Status::OK();
}

BroadcastStats BroadcastSession::Stats() const {
  BroadcastStats stats;
  stats.frames = frames_pushed_;
  stats.audience = audience_[0] + audience_[1] + audience_[2];
  stats.sampled_viewers = viewers_.size();
  if (tree_ != nullptr) {
    stats.relays = tree_->num_relays();
    stats.tree_edges = tree_->num_edges();
    stats.rebuilds = tree_->rebuilds();
    stats.server_egress_bytes = tree_->RootEgressBytes();
    stats.tree_wire_bytes = tree_->TreeWireBytes();
  }
  stats.modeled_last_hop_bytes = modeled_last_hop_bytes_;
  stats.unicast_equiv_bytes = unicast_equiv_bytes_;
  stats.streams_opened = streams_opened_;
  stats.streams_finished = streams_finished_;
  stats.streams_aborted = streams_aborted_;
  stats.chunks_failed = chunks_failed_;
  stats.enhancement_layers_dropped = enhancement_layers_dropped_;
  stats.audio_messages = audio_messages_;
  stats.audio_failures = audio_failures_;
  // Streams still open (not yet reaped) fold in without closing.
  bool live_unresolved = false;
  for (const auto& [edge, scheduler] : schedulers_) {
    for (const stream::StreamStats& live : scheduler->AllStats()) {
      if (live.finished) {
        ++stats.streams_finished;
      } else if (live.aborted) {
        ++stats.streams_aborted;
      } else {
        live_unresolved = true;
      }
      stats.chunks_failed += live.chunks_failed;
      stats.enhancement_layers_dropped += live.layers_dropped;
    }
  }
  stats.all_finished = !live_unresolved &&
                       stats.streams_finished + stats.streams_aborted ==
                           stats.streams_opened;
  return stats;
}

Result<SampledViewerStats> BroadcastSession::ViewerStats(
    net::NodeId viewer) const {
  auto it = viewers_.find(viewer);
  if (it == viewers_.end()) {
    return Status::NotFound("not a sampled viewer of this broadcast");
  }
  return it->second;
}

void BroadcastSession::SetObserver(obs::MetricsRegistry* metrics,
                                   obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  compositor_.SetObserver(metrics, tracer);
  for (auto& [edge, scheduler] : schedulers_) {
    scheduler->SetObserver(metrics, tracer);
  }
  if (metrics_ != nullptr) {
    m_frames_ = metrics_->GetCounter("fanout.frames");
    m_forwards_ = metrics_->GetCounter("fanout.relay_forwards");
    m_reparents_ = metrics_->GetCounter("fanout.reparents");
    m_resends_ = metrics_->GetCounter("fanout.history_resends");
    m_streams_ = metrics_->GetCounter("fanout.viewer_streams");
    m_audio_ = metrics_->GetCounter("fanout.audio_messages");
    m_frame_bytes_ = metrics_->GetHistogram(
        "fanout.frame_bytes", {1024, 4096, 16384, 65536, 262144, 1048576});
  } else {
    m_frames_ = m_forwards_ = m_reparents_ = m_resends_ = nullptr;
    m_streams_ = m_audio_ = nullptr;
    m_frame_bytes_ = nullptr;
  }
}

}  // namespace mmconf::fanout
