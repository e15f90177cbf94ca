#ifndef PERFBENCH_REPLAY_REPLAY_H_
#define PERFBENCH_REPLAY_REPLAY_H_

#include <cstdint>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "fanout/director.h"
#include "federation/tier.h"
#include "media/image.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "prefetch/session.h"
#include "probe.h"
#include "storage/replication.h"
#include "storage/sharded_db.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace mmconf::perfbench {

enum class Workload { kLecture, kConsult, kArchive };

Result<Workload> WorkloadFromName(const std::string& name);

/// Size and added traffic of one workload. The generator options
/// shape the trace; the remaining fields are traffic the replay adds on
/// top of it.
struct WorkloadShape {
  workload::GeneratorOptions generator;
  /// Generated traces laid end to end, each with its own clients.
  size_t sessions = 1;
  MicrosT session_spacing_micros = 0;
  /// When > 0, every room the trace never closes is closed this long
  /// after its last event.
  MicrosT close_after_micros = 0;
  /// Lecture: multiplies each aggregated admission wave of the trace.
  size_t audience_scale = 1;
  /// Lecture: real simulated viewers admitted with each aggregated wave.
  size_t sampled_viewers_per_wave = 0;
  /// Members whose client slot is a multiple of this run the §4.4
  /// prefetch loop after every configuration; 0 runs none.
  int prefetch_slot_stride = 0;
  /// Archive: phantoms each opened case uploads, and image views per join.
  size_t uploads_per_case = 0;
  size_t views_per_join = 0;
};

WorkloadShape ShapeOf(Workload workload);

/// The workload's trace for `seed`: `shape.sessions` generated traces,
/// session k shifted by k spacings, its rooms suffixed ".k" and its
/// client slots moved past the earlier sessions'.
workload::WorkloadTrace ComposeTrace(const WorkloadShape& shape,
                                     uint64_t seed);

/// Everything one replay measured. Virtual-time fields are deterministic
/// for a seed; wall and CPU fields are not.
struct ReplayResult {
  std::vector<int64_t> t2c_micros;
  std::vector<int64_t> join_micros;
  std::vector<int64_t> view_micros;
  std::vector<int64_t> late_micros;
  int64_t stall_micros = 0;
  int64_t playback_micros = 0;
  size_t objects_played = 0;
  size_t layers_played = 0;
  uint64_t wire_bytes = 0;
  int64_t sim_micros = 0;
  size_t steps = 0;
  size_t failed_steps = 0;
  std::vector<std::string> failures;  ///< first few failed steps
  std::vector<std::string> violations;
  obs::MetricsSnapshot counters;

  std::vector<int64_t> event_nanos;      ///< wall time of each step
  std::vector<int64_t> event_cpu_nanos;  ///< CPU time of each step
};

/// Stands the conferencing stack up, replays one seeded trace through it
/// in an open loop over virtual time, and checks the result.
class Replayer {
 public:
  Replayer(Workload workload, uint64_t seed, Probe* probe);
  ~Replayer();

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Test hook: step `index` of the replay is sent to a room that does
  /// not exist, so it fails.
  void FailStep(int64_t index) { fail_step_ = index; }

  /// Generates the trace, stands the stack up and pre-encodes media.
  Status Setup();
  /// The timed replay. Every step is due at its trace timestamp; each is
  /// applied, then the stack is advanced to the next step's due time.
  Status Run();
  /// Untimed end-of-run correctness checks; fills result().violations.
  void Check();

  const ReplayResult& result() const { return result_; }
  const workload::WorkloadTrace& trace() const { return trace_; }

 private:
  struct Step;
  struct RoomInfo;
  struct Upload;
  struct View;
  struct PrefetchClient;

  Status StandUp();
  Status EncodeMedia();
  void PlanSteps();

  Status ApplyStep(const Step& step);
  Status ApplyEvent(const workload::WorkloadEvent& event);
  Status ApplyUpload(const Step& step);
  Status ApplyView(const Step& step);
  /// Advances the whole stack to `until`; Drain settles it to quiescence.
  Status Pump(MicrosT until);
  Status Drain();
  /// Routes deliveries as the director's loop does (sessions, then
  /// nodes), then to the replica set and the delta, join and view
  /// trackers; sets `ship` when replication traffic arrived.
  void Route(std::vector<net::Delivery> batch, bool& ship);
  /// Messages the room's node has shipped for it; -1 when it is closed.
  int64_t RoomMessages(const std::string& room_id);
  bool MayPropagate(const Step& step) const;
  /// Registers the propagation round `event` started, if any; `before`
  /// is RoomMessages ahead of the step.
  void TrackRound(const workload::WorkloadEvent& event, int64_t before);
  void NoteDelta(const net::Delivery& delivery);
  /// Reads finished streams, and every stream of `closing_room`.
  void Poll(const std::string& closing_room = "");

  net::LinkSpec LinkFor(int slot, const workload::ClientContext& context) const;
  Status EnsureClient(int slot, const workload::ClientContext& context);
  Status PinEvidence(const workload::WorkloadEvent& event);
  /// The §4.4 client loop of the room's prefetching members.
  Status Prefetch(const std::string& room_id, MicrosT due);
  Status AddPrefetchClient(const workload::WorkloadEvent& event);
  void NoteReplication(const net::Delivery& delivery);
  void NoteJoin(const net::Delivery& delivery);
  void NoteView(const net::Delivery& delivery);
  Result<doc::MultimediaDocument> BuildDocument(uint64_t kind,
                                                uint64_t segments);

  Workload workload_;
  WorkloadShape shape_;
  uint64_t seed_;
  Probe* probe_;
  int64_t fail_step_ = -1;

  workload::WorkloadTrace trace_;
  std::vector<Step> steps_;
  ReplayResult result_;

  Clock clock_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<storage::ShardedDatabaseServer> db_;
  net::NodeId db_node_ = 0;
  std::unique_ptr<storage::ReadThroughCache> cache_;
  std::unique_ptr<federation::FederatedInteractionTier> tier_;
  std::unique_ptr<fanout::BroadcastDirector> director_;
  std::unique_ptr<storage::ReplicatedShardSet> repl_;
  /// Downlinks of the prefetching clients. Prefetch traffic is plain
  /// Network::Send; on the tier's network it would surface as stray
  /// deliveries in the director's settle loop.
  std::unique_ptr<net::Network> client_net_;
  net::NodeId client_net_server_ = 0;

  Rng media_rng_;
  Rng view_rng_;
  std::vector<Bytes> stream_pool_;
  std::vector<Bytes> upload_pool_;
  std::vector<std::vector<size_t>> upload_layer_ends_;
  std::vector<media::Image> segment_images_;

  std::map<int, net::NodeId> client_nodes_;
  std::map<int, workload::ClientContext> client_contexts_;
  std::map<int, net::NodeId> prefetch_nodes_;
  /// Due times of joins whose initial content is still on its way.
  std::map<net::NodeId, std::deque<MicrosT>> pending_joins_;
  size_t sampled_viewers_ = 0;
  std::map<std::string, RoomInfo> rooms_;
  std::vector<Upload> uploads_;
  /// Length of the stored prefix of uploads_ (views pick from it).
  size_t archived_ = 0;
  std::vector<size_t> unresolved_uploads_;
  std::vector<View> views_;
  std::map<net::NodeId, size_t> follower_shard_;
  std::vector<int64_t> follower_epoch_;
  std::map<std::string, std::map<std::string, PrefetchClient>> prefetch_;
  std::map<std::string, fanout::BroadcastSession*> sessions_;
  struct Round {
    MicrosT due = 0;
    MicrosT last = 0;   ///< latest delivery to a member so far
    size_t waiting = 0;  ///< members still to receive the delta
    bool sampled = false;  ///< started by a choice or an operation
  };
  std::vector<Round> rounds_;
  /// Per (server node, member node) link: rounds whose delta is on it,
  /// in send order.
  std::map<std::pair<net::NodeId, net::NodeId>, std::deque<size_t>>
      delta_queues_;
  struct OpenStreamInfo {
    std::string room;
    stream::StreamId id = 0;
    MicrosT interval = 0;
  };
  std::vector<OpenStreamInfo> open_streams_;
  /// The current step's archive fetch, verified once its timing ends.
  Bytes last_fetch_;
  size_t last_fetch_upload_ = SIZE_MAX;
};

}  // namespace mmconf::perfbench

#endif  // PERFBENCH_REPLAY_REPLAY_H_
