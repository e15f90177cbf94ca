#ifndef MMCONF_FANOUT_DIRECTOR_H_
#define MMCONF_FANOUT_DIRECTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "doc/tuning.h"
#include "fanout/broadcast.h"
#include "federation/tier.h"
#include "media/audio.h"
#include "media/image.h"
#include "net/network.h"

namespace mmconf::fanout {

/// Hosts BroadcastSessions on top of a FederatedInteractionTier: the
/// lecture/webinar control plane. The hosting room stays a normal
/// (small) interaction room on its federation node; the director
/// composes its visible image objects and registered speaker audio into
/// broadcast frames, admits view-only clients through the tier's front
/// door (they never join the room), and keeps the fan-out tree rooted at
/// whichever node the room lives on — a tier migration re-roots the tree
/// automatically via the tier's room-moved callback.
///
/// The director owns the shared transport's failure callback (installed
/// over the tier's): session failures (tree links, viewer last miles)
/// are handled by the owning session, everything else is forwarded to
/// FederatedInteractionTier::DispatchFailure. With broadcasts hosted,
/// the director's Settle is the transport's drive loop (stream/drive.h).
class BroadcastDirector {
 public:
  /// `tier` and `network` must outlive the director. Installs the
  /// wrapping failure callback and the room-moved hook on the tier.
  BroadcastDirector(federation::FederatedInteractionTier* tier,
                    net::Network* network);

  BroadcastDirector(const BroadcastDirector&) = delete;
  BroadcastDirector& operator=(const BroadcastDirector&) = delete;

  /// Stands a broadcast up for an open room: the session's tree roots at
  /// the room's hosting node, sized for `expected_audience`.
  /// `options.install_failure_callback` is forced off (the director owns
  /// the callback). AlreadyExists when the room already broadcasts.
  Result<BroadcastSession*> HostBroadcast(const std::string& room_id,
                                          size_t expected_audience,
                                          BroadcastOptions options = {});
  Result<BroadcastSession*> SessionFor(const std::string& room_id);
  Status CloseBroadcast(const std::string& room_id);
  size_t num_broadcasts() const { return sessions_.size(); }

  /// Binds a room image component (by name) to its decoded raster. Only
  /// registered components appear in the mosaic — the room's document
  /// stores BLOBs; the director needs the pixels.
  Status RegisterImage(const std::string& room_id,
                       const std::string& component, media::Image image);

  /// Registers a speaker's audio plus its speech segmentation (from
  /// audio::AudioSegmenter, attributed to `speaker`). The signal is
  /// copied; segments are absolute sample spans on the room timeline.
  Status RegisterSpeaker(const std::string& room_id, int speaker,
                         const media::AudioSignal& signal,
                         std::vector<media::AudioSegment> segments);

  /// Front-door admission of view-only clients: bills the admit hop
  /// front door -> hosting node over the transport (like tier Join), then
  /// spreads them over the session's edge relays. They never join the
  /// room — the room's member list stays the speakers'.
  Status AdmitViewers(const std::string& room_id, size_t count,
                      doc::BandwidthLevel level);
  Result<net::NodeId> AdmitSampledViewer(const std::string& room_id,
                                         doc::BandwidthLevel level,
                                         const net::LinkSpec& last_mile,
                                         const net::FaultSpec& faults);

  /// Composes and pushes the room's next broadcast frame: visible image
  /// components (in document order, registered rasters only) plus every
  /// registered speaker track.
  Status PushFrame(const std::string& room_id);

  /// Migrates the hosting room with its live broadcast: pauses frame
  /// production, drains to a chunk boundary (Settle), migrates the room
  /// through the tier — the room-moved hook re-roots the tree at the new
  /// node and resumes — then settles the cutover traffic.
  Result<federation::MigrationReport> MigrateBroadcast(
      const std::string& room_id, size_t target_node);

  /// stream::DriveUntilIdle over the tier's nodes, then every hosted
  /// session. Returns unconsumed deliveries in arrival order.
  Result<std::vector<net::Delivery>> Settle();

  /// Forwarded to every hosted session (fanout.* / mix.* / stream.*).
  void SetObserver(obs::MetricsRegistry* metrics, obs::Tracer* tracer);

 private:
  struct Speaker {
    int speaker = -1;
    media::AudioSignal signal;
    std::vector<media::AudioSegment> segments;
  };

  struct Hosted {
    std::unique_ptr<BroadcastSession> session;
    std::map<std::string, media::Image> images;  ///< component -> raster
    std::vector<Speaker> speakers;               ///< ascending speaker id
  };

  /// Visible registered images of the room, document order.
  Result<std::vector<media::Image>> FrameImages(const std::string& room_id,
                                                const Hosted& hosted);

  federation::FederatedInteractionTier* tier_;
  net::Network* network_;
  std::map<std::string, Hosted> sessions_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace mmconf::fanout

#endif  // MMCONF_FANOUT_DIRECTOR_H_
