#include "fanout/director.h"

#include <algorithm>
#include <utility>

#include "doc/presentation.h"
#include "doc/presentation_view.h"
#include "server/room.h"

namespace mmconf::fanout {

namespace {

/// Wire size of a front-door admission hop (mirrors the tier's control
/// hop framing).
constexpr size_t kAdmitBytes = 96;

bool IsImageKind(doc::PresentationKind kind) {
  return kind == doc::PresentationKind::kImage ||
         kind == doc::PresentationKind::kSegmentedImage ||
         kind == doc::PresentationKind::kThumbnail;
}

}  // namespace

BroadcastDirector::BroadcastDirector(
    federation::FederatedInteractionTier* tier, net::Network* network)
    : tier_(tier), network_(network) {
  // One failure callback serves both layers: broadcast traffic first
  // (tree links, viewer last miles, composed-stream chunks), the tier's
  // own dispatch for everything else.
  tier_->transport()->SetFailureCallback(
      [this](const net::FailedMessage& failure) {
        for (auto& [room, hosted] : sessions_) {
          if (hosted.session->OnSendFailure(failure)) return;
        }
        tier_->DispatchFailure(failure);
      });
  // A migrated room drags its broadcast along: re-root the tree at the
  // new hosting node and resume frame production.
  tier_->SetRoomMovedCallback(
      [this](const std::string& room_id, size_t /*from*/, size_t to) {
        auto it = sessions_.find(room_id);
        if (it == sessions_.end()) return;
        BroadcastSession* session = it->second.session.get();
        if (!session->paused()) session->PauseAtChunkBoundary().ok();
        session->ResumeAt(tier_->node_net(to)).ok();
      });
}

Result<BroadcastSession*> BroadcastDirector::HostBroadcast(
    const std::string& room_id, size_t expected_audience,
    BroadcastOptions options) {
  if (sessions_.count(room_id) > 0) {
    return Status::AlreadyExists("room \"" + room_id +
                                 "\" already hosts a broadcast");
  }
  MMCONF_ASSIGN_OR_RETURN(size_t owner, tier_->NodeOf(room_id));
  options.install_failure_callback = false;  // the director owns it
  Hosted hosted;
  hosted.session = std::make_unique<BroadcastSession>(
      network_, tier_->transport(), tier_->node_net(owner), room_id,
      std::move(options));
  MMCONF_RETURN_IF_ERROR(hosted.session->OpenAudience(expected_audience));
  hosted.session->SetObserver(metrics_, tracer_);
  BroadcastSession* session = hosted.session.get();
  sessions_[room_id] = std::move(hosted);
  return session;
}

Result<BroadcastSession*> BroadcastDirector::SessionFor(
    const std::string& room_id) {
  auto it = sessions_.find(room_id);
  if (it == sessions_.end()) {
    return Status::NotFound("room \"" + room_id +
                            "\" hosts no broadcast");
  }
  return it->second.session.get();
}

Status BroadcastDirector::CloseBroadcast(const std::string& room_id) {
  if (sessions_.erase(room_id) == 0) {
    return Status::NotFound("room \"" + room_id +
                            "\" hosts no broadcast");
  }
  return Status::OK();
}

Status BroadcastDirector::RegisterImage(const std::string& room_id,
                                        const std::string& component,
                                        media::Image image) {
  auto it = sessions_.find(room_id);
  if (it == sessions_.end()) {
    return Status::NotFound("room \"" + room_id +
                            "\" hosts no broadcast");
  }
  it->second.images[component] = std::move(image);
  return Status::OK();
}

Status BroadcastDirector::RegisterSpeaker(
    const std::string& room_id, int speaker,
    const media::AudioSignal& signal,
    std::vector<media::AudioSegment> segments) {
  auto it = sessions_.find(room_id);
  if (it == sessions_.end()) {
    return Status::NotFound("room \"" + room_id +
                            "\" hosts no broadcast");
  }
  for (const Speaker& existing : it->second.speakers) {
    if (existing.speaker == speaker) {
      return Status::AlreadyExists("speaker " + std::to_string(speaker) +
                                   " already registered");
    }
  }
  Speaker entry;
  entry.speaker = speaker;
  entry.signal = signal;
  entry.segments = std::move(segments);
  it->second.speakers.push_back(std::move(entry));
  std::sort(it->second.speakers.begin(), it->second.speakers.end(),
            [](const Speaker& a, const Speaker& b) {
              return a.speaker < b.speaker;
            });
  return Status::OK();
}

Status BroadcastDirector::AdmitViewers(const std::string& room_id,
                                       size_t count,
                                       doc::BandwidthLevel level) {
  MMCONF_ASSIGN_OR_RETURN(BroadcastSession * session, SessionFor(room_id));
  MMCONF_ASSIGN_OR_RETURN(size_t owner, tier_->NodeOf(room_id));
  // Front-door billing: view-only admission routes through node 0 like
  // any other request, one control hop for the whole batch.
  if (owner != 0) {
    MMCONF_RETURN_IF_ERROR(
        tier_->transport()
            ->Send(tier_->node_net(0), tier_->node_net(owner), kAdmitBytes,
                   "fo:admit:" + room_id)
            .status());
  }
  return session->AdmitAudience(count, level);
}

Result<net::NodeId> BroadcastDirector::AdmitSampledViewer(
    const std::string& room_id, doc::BandwidthLevel level,
    const net::LinkSpec& last_mile, const net::FaultSpec& faults) {
  MMCONF_ASSIGN_OR_RETURN(BroadcastSession * session, SessionFor(room_id));
  MMCONF_ASSIGN_OR_RETURN(size_t owner, tier_->NodeOf(room_id));
  if (owner != 0) {
    MMCONF_RETURN_IF_ERROR(
        tier_->transport()
            ->Send(tier_->node_net(0), tier_->node_net(owner), kAdmitBytes,
                   "fo:admit:" + room_id)
            .status());
  }
  return session->AdmitSampledViewer(level, last_mile, faults);
}

Result<std::vector<media::Image>> BroadcastDirector::FrameImages(
    const std::string& room_id, const Hosted& hosted) {
  MMCONF_ASSIGN_OR_RETURN(server::Room * room, tier_->GetRoom(room_id));
  const doc::PresentationView& view = room->view();
  std::vector<media::Image> images;
  for (size_t var = 0; var < view.num_components(); ++var) {
    if (!view.visible(var)) continue;
    const doc::PrimitiveMultimediaComponent* primitive =
        view.primitive(var);
    const doc::MMPresentation* presentation = view.presentation(var);
    if (primitive == nullptr || presentation == nullptr) continue;
    if (!IsImageKind(presentation->kind)) continue;
    auto raster = hosted.images.find(primitive->name());
    if (raster == hosted.images.end()) continue;  // no pixels registered
    images.push_back(raster->second);
  }
  return images;
}

Status BroadcastDirector::PushFrame(const std::string& room_id) {
  auto it = sessions_.find(room_id);
  if (it == sessions_.end()) {
    return Status::NotFound("room \"" + room_id +
                            "\" hosts no broadcast");
  }
  Hosted& hosted = it->second;
  MMCONF_ASSIGN_OR_RETURN(std::vector<media::Image> images,
                          FrameImages(room_id, hosted));
  std::vector<SpeakerTrack> tracks;
  tracks.reserve(hosted.speakers.size());
  for (const Speaker& speaker : hosted.speakers) {
    SpeakerTrack track;
    track.speaker = speaker.speaker;
    track.signal = &speaker.signal;
    track.segments = speaker.segments;
    tracks.push_back(std::move(track));
  }
  return hosted.session->PushFrame(images, tracks);
}

Result<federation::MigrationReport> BroadcastDirector::MigrateBroadcast(
    const std::string& room_id, size_t target_node) {
  MMCONF_ASSIGN_OR_RETURN(BroadcastSession * session, SessionFor(room_id));
  // Chunk-boundary quiesce: no new frames, drain what is in flight so
  // every composed stream resolves before the room's state ships.
  MMCONF_RETURN_IF_ERROR(session->PauseAtChunkBoundary());
  MMCONF_RETURN_IF_ERROR(Settle().status());
  // The room-moved hook fires inside FinishMigration: it re-roots the
  // tree at the target node and un-pauses the session.
  Result<federation::MigrationReport> report =
      tier_->MigrateRoom(room_id, target_node);
  if (!report.ok()) {
    // The room stayed put; the broadcast continues from the old origin.
    session->ResumeAt(session->origin()).ok();
    return report;
  }
  MMCONF_RETURN_IF_ERROR(Settle().status());
  return report;
}

Result<std::vector<net::Delivery>> BroadcastDirector::Settle() {
  std::vector<stream::DriveParticipant*> participants = tier_->Participants();
  for (auto& [room, hosted] : sessions_) {
    participants.push_back(hosted.session.get());
  }
  return stream::DriveUntilIdle(tier_->transport(), participants);
}

void BroadcastDirector::SetObserver(obs::MetricsRegistry* metrics,
                                    obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  for (auto& [room, hosted] : sessions_) {
    hosted.session->SetObserver(metrics, tracer);
  }
}

}  // namespace mmconf::fanout
