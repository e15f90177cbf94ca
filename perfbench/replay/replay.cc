#include "replay.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "compress/layered_codec.h"
#include "compress/wavelet.h"
#include "doc/builder.h"
#include "doc/tuning.h"
#include "media/synthetic.h"
#include "server/events.h"
#include "server/room.h"
#include "workload/context.h"
#include "workload/timeline.h"

namespace mmconf::perfbench {

using workload::EventKind;
using workload::WorkloadEvent;

namespace {

/// Name of the tuning variable AddBandwidthTuning appends; a client's
/// context is pinned on it as CP-net evidence (as in the chaos driver).
constexpr char kTuningVar[] = "net";
constexpr char kViewTag[] = "pb:view:";
/// Chaos-gate defaults for background faults on every client last mile.
constexpr double kDropProbability = 0.005;
constexpr MicrosT kJitterMicros = 2000;
/// An archive view ships what the viewer's link carries in this long.
constexpr double kViewBudgetSeconds = 0.02;
/// Room streams carry 128x128 phantoms; archive uploads are drawn from
/// eight distinct 192x192 CT phantoms, encoded once at set-up.
constexpr int kStreamObjectPx = 128;
constexpr size_t kUploadPool = 8;
constexpr int kUploadPx = 192;
/// Link draws of sampled broadcast viewers use slots past every client's.
constexpr int kSampledViewerSlots = 1 << 24;

/// splitmix64: per-client draws independent of replay order.
uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

struct Replayer::Step {
  enum Kind : uint8_t { kEvent, kUpload, kView };
  MicrosT at = 0;
  Kind kind = kEvent;
  size_t index = 0;  ///< into trace_.events, uploads_ or views_
};

struct Replayer::RoomInfo {
  uint64_t doc_kind = 0;  ///< 0 medical, 1 timeline
  bool hosted = false;
  bool open = false;
  std::vector<size_t> uploads;  ///< this case's images (archive)
};

struct Replayer::Upload {
  std::string room;
  size_t pool = 0;
  MicrosT due = 0;
  storage::ObjectRef ref;
  size_t shard = 0;
  uint64_t epoch = 0;
  size_t ordinal = 0;  ///< WAL records of the epoch once it is appended
  bool stored = false;
};

struct Replayer::View {
  std::string room;
  int slot = -1;
  workload::ClientContext context;
  MicrosT due = 0;
  size_t upload = 0;
  bool arrived = false;
};

struct Replayer::PrefetchClient {
  int slot = -1;
  /// Reads the room's document; rebuilt when the room moves.
  std::unique_ptr<prefetch::PrefetchSession> session;
};

Result<Workload> WorkloadFromName(const std::string& name) {
  if (name == "lecture") return Workload::kLecture;
  if (name == "consult") return Workload::kConsult;
  if (name == "archive") return Workload::kArchive;
  return Status::InvalidArgument("unknown workload \"" + name + "\"");
}

WorkloadShape ShapeOf(Workload workload) {
  WorkloadShape shape;
  workload::GeneratorOptions& gen = shape.generator;
  gen.inject_net_faults = false;
  gen.inject_storage_faults = false;
  gen.inject_node_loss = false;
  gen.storage_shards = 2;
  gen.federation_nodes = 2;
  switch (workload) {
    case Workload::kLecture:
      // A day of lectures, each one generated lecture with its own 64
      // members. Sessions do not overlap, so one flash crowd's evidence
      // pins (each re-propagated to the whole room) never pile onto
      // another's. 33 x 16 segments give 528 frames and about 1000
      // timeline choice rounds, so t2c_ms_p99 has ten samples beyond it.
      gen.mix = workload::ScenarioMix::kLecture;
      shape.sessions = 33;
      shape.session_spacing_micros = 24'000'000;
      gen.rooms = 1;
      gen.clients = 64;
      gen.duration_micros = 20'000'000;
      gen.timeline.segments = 16;
      gen.timeline.segment_interval_micros = 1'000'000;
      // Slide-sized segments: at the generator's 256 KiB every evidence
      // pin of a flash crowd re-ships a quarter megabyte to each member
      // and the slow last miles never drain.
      gen.timeline.segment_bytes = 16 << 10;
      shape.audience_scale = 4;  // 4 x 40 x 64 = 10240 aggregated viewers
      // Two sampled viewers keep a replay short enough that a run
      // repeats it a few times. The prefetch loop on every second member
      // gives view_ms_p99 some 30k samples; with fewer it swings between
      // seeds.
      shape.sampled_viewers_per_wave = 1;
      shape.prefetch_slot_stride = 2;
      break;
    case Workload::kConsult:
      gen.mix = workload::ScenarioMix::kConsult;
      gen.rooms = 1800;
      // One client slot per member, so every room draws its own links.
      gen.clients = 5400;
      gen.duration_micros = 16'000'000;
      shape.close_after_micros = 3'000'000;
      // A migration drains the whole shared transport before its cutover;
      // across hundreds of rooms that would stall every other room.
      gen.federation_nodes = 1;
      shape.prefetch_slot_stride = 1;
      break;
    case Workload::kArchive:
      // 1000 cases: a thousand joins for join_ms_p99, and some 24 MB of
      // archived images against a 1 MiB cache.
      gen.mix = workload::ScenarioMix::kBrowse;
      gen.rooms = 1000;
      gen.clients = 200;
      gen.duration_micros = 500'000'000;
      shape.uploads_per_case = 2;
      shape.views_per_join = 4;
      break;
  }
  return shape;
}

workload::WorkloadTrace ComposeTrace(const WorkloadShape& shape,
                                     uint64_t seed) {
  workload::WorkloadTrace trace;
  trace.seed = seed;
  for (size_t k = 0; k < shape.sessions; ++k) {
    const uint64_t session_seed =
        shape.sessions > 1 ? Mix(seed + k * 0x9e3779b97f4a7c15ull) : seed;
    workload::WorkloadTrace session =
        workload::WorkloadGenerator(session_seed, shape.generator).Generate();
    trace.scenario = session.scenario;
    const MicrosT shift =
        static_cast<MicrosT>(k) * shape.session_spacing_micros;
    const int slots = static_cast<int>(shape.generator.clients * k);
    for (WorkloadEvent& event : session.events) {
      event.at += shift;
      if (shape.sessions > 1 && !event.room.empty()) {
        event.room += "." + std::to_string(k);
      }
      if (event.client >= 0) event.client += slots;
      trace.events.push_back(std::move(event));
    }
  }
  if (shape.close_after_micros > 0) {
    // Rooms the generator leaves open (consults) end this long after
    // their last event, so open rooms do not pile up over the run.
    std::map<std::string, MicrosT> last;
    for (const WorkloadEvent& event : trace.events) {
      if (event.room.empty()) continue;
      if (event.kind == EventKind::kCloseRoom) {
        last[event.room] = -1;
      } else if (last[event.room] >= 0) {
        last[event.room] = std::max(last[event.room], event.at);
      }
    }
    for (const auto& [room, at] : last) {
      if (at < 0) continue;
      WorkloadEvent close;
      close.at = at + shape.close_after_micros;
      close.kind = EventKind::kCloseRoom;
      close.room = room;
      trace.events.push_back(std::move(close));
    }
  }
  trace.SortByTime();
  return trace;
}

Replayer::Replayer(Workload workload, uint64_t seed, Probe* probe)
    : workload_(workload),
      shape_(ShapeOf(workload)),
      seed_(seed),
      probe_(probe),
      media_rng_(seed ^ 0x6d656469615f726eull),
      view_rng_(seed ^ 0x7669657773ull) {}

Replayer::~Replayer() { compress::SetKernelObserver(nullptr); }

Status Replayer::Setup() {
  compress::SetKernelObserver(&metrics_);
  {
    PB_SPAN(*probe_, "workload.generate");
    trace_ = ComposeTrace(shape_, seed_);
  }
  MMCONF_RETURN_IF_ERROR(StandUp());
  MMCONF_RETURN_IF_ERROR(EncodeMedia());
  PlanSteps();
  return Status::OK();
}

Status Replayer::StandUp() {
  network_ = std::make_unique<net::Network>(&clock_, seed_);
  storage::ShardedDatabaseServer::Options db_options;
  db_options.num_shards = shape_.generator.storage_shards;
  db_ = std::make_unique<storage::ShardedDatabaseServer>(&clock_, db_options);
  db_node_ = network_->AddNode("db");
  MMCONF_RETURN_IF_ERROR(db_->RegisterStandardTypes());
  cache_ = std::make_unique<storage::ReadThroughCache>(db_.get(), 1 << 20);
  federation::FederationOptions fed_options;
  fed_options.num_nodes = shape_.generator.federation_nodes;
  fed_options.backbone = {50e6, 1000};
  fed_options.retry = {120000, 2.0, 1000000, 12, 1 << 16};
  tier_ = std::make_unique<federation::FederatedInteractionTier>(
      cache_.get(), network_.get(), db_node_, fed_options);
  director_ =
      std::make_unique<fanout::BroadcastDirector>(tier_.get(), network_.get());
  storage::ReplicationOptions repl_options;
  repl_options.followers_per_shard = 1;
  repl_ = std::make_unique<storage::ReplicatedShardSet>(
      db_.get(), tier_->transport(), &clock_, db_node_, repl_options);
  db_->SetObserver(&metrics_, nullptr);
  network_->SetObserver(&metrics_, nullptr);
  tier_->SetObserver(&metrics_, nullptr);
  director_->SetObserver(&metrics_, nullptr);
  cache_->SetObserver(&metrics_);
  tier_->transport()->SetObserver(&metrics_, nullptr);
  repl_->SetObserver(&metrics_, nullptr);
  MMCONF_RETURN_IF_ERROR(tier_->node(0)->RegisterDocumentType());
  for (size_t s = 0; s < repl_->num_shards(); ++s) {
    follower_shard_[repl_->follower_node(s, 0)] = s;
  }
  follower_epoch_.assign(repl_->num_shards(), -1);
  client_net_ = std::make_unique<net::Network>(&clock_, seed_ ^ 0x636c69ull);
  client_net_server_ = client_net_->AddNode("server");
  return Status::OK();
}

Status Replayer::EncodeMedia() {
  compress::LayeredCodec codec;
  const int side = kStreamObjectPx;
  for (int i = 0; i < 3; ++i) {
    media::Image image = media::MakePhantomCt({side, side, 4, 2.0}, media_rng_);
    PB_SPAN(*probe_, "compress.encode");
    MMCONF_ASSIGN_OR_RETURN(Bytes encoded, codec.Encode(image));
    stream_pool_.push_back(std::move(encoded));
  }
  const size_t pool = shape_.uploads_per_case > 0 ? kUploadPool : 0;
  for (size_t i = 0; i < pool; ++i) {
    media::Image image =
        media::MakePhantomCt({kUploadPx, kUploadPx, 5, 4.0}, media_rng_);
    Bytes encoded;
    {
      PB_SPAN(*probe_, "compress.encode");
      MMCONF_ASSIGN_OR_RETURN(encoded, codec.Encode(image));
    }
    MMCONF_ASSIGN_OR_RETURN(compress::StreamInfo info,
                            compress::LayeredCodec::Inspect(encoded));
    upload_layer_ends_.push_back(info.layer_end);
    upload_pool_.push_back(std::move(encoded));
  }
  if (workload_ == Workload::kLecture) {
    // Pixels for every timeline segment, so each frame's mosaic holds
    // the live segment and its preview however far the lecture is.
    for (size_t k = 0; k < shape_.generator.timeline.segments; ++k) {
      segment_images_.push_back(
          media::MakePhantomCt({64, 64, 4, 2.0}, media_rng_));
    }
  }
  return Status::OK();
}

void Replayer::PlanSteps() {
  for (size_t i = 0; i < trace_.events.size(); ++i) {
    steps_.push_back({trace_.events[i].at, Step::kEvent, i});
  }
  for (const WorkloadEvent& event : trace_.events) {
    if (event.kind == EventKind::kOpenRoom) {
      for (size_t k = 0; k < shape_.uploads_per_case; ++k) {
        Upload upload;
        upload.room = event.room;
        upload.pool = uploads_.size() % std::max<size_t>(1, upload_pool_.size());
        upload.due = event.at + 40'000 * static_cast<MicrosT>(k + 1);
        steps_.push_back({upload.due, Step::kUpload, uploads_.size()});
        uploads_.push_back(std::move(upload));
      }
    } else if (event.kind == EventKind::kJoin) {
      for (size_t k = 0; k < shape_.views_per_join; ++k) {
        View view;
        view.room = event.room;
        view.slot = event.client;
        view.context = event.context;
        view.due = event.at + 120'000 * static_cast<MicrosT>(k + 1);
        steps_.push_back({view.due, Step::kView, views_.size()});
        views_.push_back(std::move(view));
      }
    }
  }
  // Ties keep trace order first, then the added traffic in planning order.
  std::stable_sort(steps_.begin(), steps_.end(),
                   [](const Step& a, const Step& b) { return a.at < b.at; });
}

Result<doc::MultimediaDocument> Replayer::BuildDocument(uint64_t kind,
                                                        uint64_t segments) {
  workload::TimelineOptions timeline = shape_.generator.timeline;
  timeline.segments = segments > 0 ? static_cast<size_t>(segments) : 4;
  Result<doc::MultimediaDocument> built =
      kind == 1 ? workload::MakeTimelineDocument(timeline)
                : doc::MakeMedicalRecordDocument();
  if (!built.ok()) return built.status();
  doc::MultimediaDocument document = std::move(built).value();
  MMCONF_RETURN_IF_ERROR(
      doc::AddBandwidthTuning(document, kTuningVar).status());
  return document;
}

net::LinkSpec Replayer::LinkFor(int slot,
                                const workload::ClientContext& context) const {
  // Last miles vary around their bandwidth class's nominal rate: a factor
  // log-uniform in [0.5, 2], fixed per client. Latencies then spread
  // continuously instead of piling onto a few values.
  net::LinkSpec spec = workload::ContextLinkSpec(context);
  const uint64_t draw = Mix(seed_ ^ (static_cast<uint64_t>(slot) << 20));
  const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
  spec.bandwidth_bytes_per_sec *= std::exp2(2.0 * u - 1.0);
  return spec;
}

Status Replayer::EnsureClient(int slot,
                              const workload::ClientContext& context) {
  auto found = client_nodes_.find(slot);
  if (found == client_nodes_.end()) {
    net::NodeId node = network_->AddNode("client-" + std::to_string(slot));
    {
      PB_SPAN(*probe_, "federation.connect_client");
      MMCONF_RETURN_IF_ERROR(
          tier_->ConnectClient(node, LinkFor(slot, context)));
    }
    found = client_nodes_.emplace(slot, node).first;
  } else if (client_contexts_[slot] == context) {
    return Status::OK();
  }
  PB_SPAN(*probe_, "net.set_link");
  net::LinkSpec spec = LinkFor(slot, context);
  net::FaultSpec fault;
  fault.drop_probability = kDropProbability;
  fault.jitter_micros = kJitterMicros;
  for (size_t i = 0; i < tier_->num_nodes(); ++i) {
    net::NodeId server = tier_->node_net(i);
    MMCONF_RETURN_IF_ERROR(network_->SetLink(found->second, server, spec));
    MMCONF_RETURN_IF_ERROR(network_->SetLink(server, found->second, spec));
    MMCONF_RETURN_IF_ERROR(
        network_->SetDuplexFault(found->second, server, fault));
  }
  auto prefetch_node = prefetch_nodes_.find(slot);
  if (prefetch_node != prefetch_nodes_.end()) {
    MMCONF_RETURN_IF_ERROR(client_net_->SetLink(
        client_net_server_, prefetch_node->second, spec));
  }
  client_contexts_[slot] = context;
  return Status::OK();
}

Status Replayer::PinEvidence(const WorkloadEvent& event) {
  PB_SPAN(*probe_, "federation.submit_choice");
  return tier_
      ->SubmitChoice(event.room, event.viewer, kTuningVar,
                     doc::BandwidthLevelToString(
                         workload::EffectiveLevel(event.context)))
      .status();
}

Status Replayer::AddPrefetchClient(const WorkloadEvent& event) {
  const int stride = shape_.prefetch_slot_stride;
  if (stride <= 0 || event.client % stride != 0) return Status::OK();
  auto node = prefetch_nodes_.find(event.client);
  if (node == prefetch_nodes_.end()) {
    net::NodeId id =
        client_net_->AddNode("client-" + std::to_string(event.client));
    PB_SPAN(*probe_, "net.set_link");
    MMCONF_RETURN_IF_ERROR(
        client_net_->SetLink(client_net_server_, id,
                             LinkFor(event.client,
                                     client_contexts_[event.client])));
    node = prefetch_nodes_.emplace(event.client, id).first;
  }
  PrefetchClient& client = prefetch_[event.room][event.viewer];
  client.slot = event.client;
  client.session.reset();  // built against the live room on first use
  return Status::OK();
}

Status Replayer::Prefetch(const std::string& room_id, MicrosT due) {
  auto members = prefetch_.find(room_id);
  if (members == prefetch_.end() || members->second.empty()) {
    return Status::OK();
  }
  server::Room* room = nullptr;
  {
    PB_SPAN(*probe_, "federation.get_room");
    MMCONF_ASSIGN_OR_RETURN(room, tier_->GetRoom(room_id));
  }
  for (auto& [viewer, client] : members->second) {
    if (client.session == nullptr) {
      client.session = std::make_unique<prefetch::PrefetchSession>(
          &room->document(), client_net_.get(), client_net_server_,
          prefetch_nodes_.at(client.slot),
          prefetch::PrefetchSession::Options{});
      client.session->SetObserver(&metrics_);
    }
    const prefetch::CacheStats& stats = client.session->stats();
    const size_t requests = stats.hits + stats.misses;
    MicrosT shown = 0;
    {
      PB_SPAN(*probe_, "prefetch.on_configuration");
      MMCONF_ASSIGN_OR_RETURN(
          shown, client.session->OnConfiguration(room->configuration()));
    }
    // A view is a configuration that made something visible: served from
    // the buffer (a prefetch hit) or fetched on demand.
    if (stats.hits + stats.misses > requests) {
      result_.view_micros.push_back(shown - due);
    }
  }
  return Status::OK();
}

Status Replayer::ApplyEvent(const WorkloadEvent& event) {
  switch (event.kind) {
    case EventKind::kOpenRoom: {
      Result<doc::MultimediaDocument> document = Status::Internal("unbuilt");
      {
        PB_SPAN(*probe_, "doc.build");
        document = BuildDocument(event.a, event.b);
      }
      MMCONF_RETURN_IF_ERROR(document.status());
      storage::ObjectRef ref;
      {
        PB_SPAN(*probe_, "server.store_document");
        MMCONF_ASSIGN_OR_RETURN(
            ref, tier_->node(0)->StoreDocument(document.value(), event.room));
      }
      {
        PB_SPAN(*probe_, "federation.open_room");
        MMCONF_RETURN_IF_ERROR(tier_->OpenRoom(event.room, ref).status());
      }
      RoomInfo& info = rooms_[event.room];
      info.doc_kind = event.a;
      info.open = true;
      return Status::OK();
    }
    case EventKind::kCloseRoom: {
      MMCONF_ASSIGN_OR_RETURN(size_t owner, tier_->NodeOf(event.room));
      {
        PB_SPAN(*probe_, "server.archive_room_log");
        MMCONF_RETURN_IF_ERROR(
            tier_->node(owner)->ArchiveRoomLog(event.room).status());
      }
      // The room's streams end with it: read them as they stand (a case
      // closed while its stream is still queued behind the viewer's
      // other downloads plays nothing more).
      Poll(event.room);
      RoomInfo& info = rooms_[event.room];
      if (info.hosted) {
        PB_SPAN(*probe_, "fanout.close_broadcast");
        MMCONF_RETURN_IF_ERROR(director_->CloseBroadcast(event.room));
        sessions_.erase(event.room);
        info.hosted = false;
      }
      {
        PB_SPAN(*probe_, "federation.close_room");
        MMCONF_RETURN_IF_ERROR(tier_->CloseRoom(event.room));
      }
      info.open = false;
      prefetch_.erase(event.room);
      return Status::OK();
    }
    case EventKind::kJoin: {
      MMCONF_RETURN_IF_ERROR(EnsureClient(event.client, event.context));
      const net::NodeId node = client_nodes_.at(event.client);
      {
        PB_SPAN(*probe_, "federation.join");
        MMCONF_RETURN_IF_ERROR(
            tier_->Join(event.room, {event.viewer, node}).status());
      }
      // Timed when the initial content is delivered (Route).
      pending_joins_[node].push_back(event.at);
      MMCONF_RETURN_IF_ERROR(PinEvidence(event));
      MMCONF_RETURN_IF_ERROR(AddPrefetchClient(event));
      return Prefetch(event.room, event.at);
    }
    case EventKind::kLeave: {
      PB_SPAN(*probe_, "federation.leave");
      MMCONF_RETURN_IF_ERROR(tier_->Leave(event.room, event.viewer));
      auto members = prefetch_.find(event.room);
      if (members != prefetch_.end()) members->second.erase(event.viewer);
      return Status::OK();
    }
    case EventKind::kSetContext: {
      MMCONF_RETURN_IF_ERROR(EnsureClient(event.client, event.context));
      MMCONF_RETURN_IF_ERROR(PinEvidence(event));
      return Prefetch(event.room, event.at);
    }
    case EventKind::kChoice: {
      {
        PB_SPAN(*probe_, "federation.submit_choice");
        MMCONF_RETURN_IF_ERROR(tier_
                                   ->SubmitChoice(event.room, event.viewer,
                                                  event.component,
                                                  event.presentation)
                                   .status());
      }
      return Prefetch(event.room, event.at);
    }
    case EventKind::kOperation: {
      server::UserAction action;
      action.type = static_cast<server::ActionType>(event.a);
      action.viewer = event.viewer;
      action.component = event.component;
      action.text = "consult note";
      action.region = {8, 8, 48, 48};
      action.num_segments = 4;
      action.timestamp = clock_.NowMicros();
      {
        PB_SPAN(*probe_, "federation.apply_operation");
        MMCONF_RETURN_IF_ERROR(
            tier_->ApplyOperation(event.room, action, event.b != 0).status());
      }
      return Prefetch(event.room, event.at);
    }
    case EventKind::kBroadcast: {
      PB_SPAN(*probe_, "federation.broadcast");
      return tier_
          ->Broadcast(event.room, "bench:" + event.presentation, event.a)
          .status();
    }
    case EventKind::kOpenStream: {
      MMCONF_ASSIGN_OR_RETURN(size_t owner, tier_->NodeOf(event.room));
      size_t count = std::clamp<size_t>(event.a, 1, stream_pool_.size());
      std::vector<Bytes> objects(stream_pool_.begin(),
                                 stream_pool_.begin() +
                                     static_cast<ptrdiff_t>(count));
      stream::StreamOptions options;
      options.interval_micros =
          event.b > 0 ? static_cast<MicrosT>(event.b) : 200'000;
      options.start_deadline_micros =
          clock_.NowMicros() + options.interval_micros;
      PB_SPAN(*probe_, "server.open_stream");
      MMCONF_ASSIGN_OR_RETURN(
          stream::StreamId id,
          tier_->node(owner)->OpenStream(event.room, event.viewer, objects,
                                         options));
      open_streams_.push_back({event.room, id, options.interval_micros});
      return Status::OK();
    }
    case EventKind::kMigrateRoom: {
      MMCONF_ASSIGN_OR_RETURN(size_t owner, tier_->NodeOf(event.room));
      size_t nodes = tier_->num_nodes();
      size_t target = (owner + std::max<uint64_t>(1, event.a)) % nodes;
      if (target == owner) target = (owner + 1) % nodes;
      // The migration settles the stack before its cutover and closes the
      // streams that finished meanwhile; drain first so they are read.
      MMCONF_RETURN_IF_ERROR(Drain());
      Poll();
      // The room is rebuilt on its new node: its prefetching clients
      // rebind (fresh predictor and buffer) to the document they now see.
      for (auto& [viewer, client] : prefetch_[event.room]) {
        client.session.reset();
      }
      Status moved;
      if (rooms_[event.room].hosted) {
        PB_SPAN(*probe_, "fanout.migrate_broadcast");
        moved = director_->MigrateBroadcast(event.room, target).status();
      } else {
        PB_SPAN(*probe_, "federation.migrate_room");
        moved = tier_->MigrateRoom(event.room, target).status();
      }
      return moved;
    }
    case EventKind::kHostBroadcast: {
      {
        PB_SPAN(*probe_, "fanout.host_broadcast");
        MMCONF_ASSIGN_OR_RETURN(sessions_[event.room],
                                director_->HostBroadcast(event.room, event.a));
      }
      RoomInfo& info = rooms_[event.room];
      info.hosted = true;
      if (info.doc_kind != 1) return Status::OK();
      for (size_t k = 0; k < segment_images_.size(); ++k) {
        PB_SPAN(*probe_, "fanout.register_image");
        MMCONF_RETURN_IF_ERROR(director_->RegisterImage(
            event.room, workload::TimelineSegmentName(k), segment_images_[k]));
      }
      return Status::OK();
    }
    case EventKind::kAdmitViewers: {
      doc::BandwidthLevel level = workload::EffectiveLevel(event.context);
      {
        PB_SPAN(*probe_, "fanout.admit_viewers");
        MMCONF_RETURN_IF_ERROR(director_->AdmitViewers(
            event.room, event.a * shape_.audience_scale, level));
      }
      net::FaultSpec fault;
      fault.drop_probability = kDropProbability;
      fault.jitter_micros = kJitterMicros;
      for (size_t i = 0; i < shape_.sampled_viewers_per_wave; ++i) {
        PB_SPAN(*probe_, "fanout.admit_sampled_viewer");
        MMCONF_RETURN_IF_ERROR(
            director_
                ->AdmitSampledViewer(event.room, level,
                                     LinkFor(kSampledViewerSlots + static_cast<int>(
                                                 sampled_viewers_++),
                                             event.context),
                                     fault)
                .status());
      }
      return Status::OK();
    }
    case EventKind::kPushFrame: {
      PB_SPAN(*probe_, "fanout.push_frame");
      return director_->PushFrame(event.room);
    }
    case EventKind::kLinkFlap:
    case EventKind::kShardCrash:
    case EventKind::kNodeLoss:
      break;
  }
  return Status::InvalidArgument(
      std::string("fault event ") + workload::EventKindToString(event.kind) +
      " is not part of the benchmark (the chaos gate covers faults)");
}

Status Replayer::ApplyUpload(const Step& step) {
  Upload& upload = uploads_[step.index];
  std::map<std::string, storage::FieldValue> fields = {
      {"FLD_QUALITY", int64_t{100}},
      {"FLD_TEXTS", std::string()},
      {"FLD_CM", upload.room}};
  {
    PB_SPAN(*probe_, "storage.store");
    MMCONF_ASSIGN_OR_RETURN(
        upload.ref,
        cache_->Store("Image", std::move(fields),
                      {{"FLD_DATA", upload_pool_[upload.pool]}}));
  }
  upload.stored = true;
  upload.shard = db_->ShardOf(upload.ref);
  upload.epoch = repl_->epoch(upload.shard);
  const storage::WriteAheadLog* wal = db_->shard_wal(upload.shard);
  upload.ordinal = wal->durable_records() + wal->pending_records();
  unresolved_uploads_.push_back(step.index);
  rooms_[upload.room].uploads.push_back(step.index);
  return Status::OK();
}

Status Replayer::ApplyView(const Step& step) {
  View& view = views_[step.index];
  // Half the views open an image of the viewer's own case; the rest pick
  // from everything archived so far with popularity skewed towards the
  // oldest (reference) cases, over a working set larger than the cache.
  const std::vector<size_t>& own = rooms_[view.room].uploads;
  while (archived_ < uploads_.size() && uploads_[archived_].stored) {
    ++archived_;
  }
  const size_t stored = archived_;
  if (!own.empty() && view_rng_.Chance(0.5)) {
    view.upload = own[view_rng_.NextBelow(own.size())];
  } else if (stored > 0) {
    double u = view_rng_.NextDouble();
    view.upload = std::min(stored - 1,
                           static_cast<size_t>(static_cast<double>(stored) *
                                               u * u * u));
  } else {
    return Status::FailedPrecondition("no archived image to view yet");
  }
  const Upload& upload = uploads_[view.upload];
  const Bytes& stream = upload_pool_[upload.pool];
  net::LinkSpec link = LinkFor(view.slot, view.context);
  size_t budget =
      static_cast<size_t>(link.bandwidth_bytes_per_sec * kViewBudgetSeconds);
  int layers = 0;
  {
    PB_SPAN(*probe_, "compress.layers_within_budget");
    MMCONF_ASSIGN_OR_RETURN(
        layers, compress::LayeredCodec::LayersWithinBudget(stream, budget));
  }
  layers = std::max(1, layers);  // the base layer is always shipped
  size_t prefix = upload_layer_ends_[upload.pool][layers - 1];
  {
    PB_SPAN(*probe_, "storage.fetch_range");
    MMCONF_ASSIGN_OR_RETURN(
        last_fetch_, cache_->FetchBlobRange(upload.ref, "FLD_DATA", 0, prefix));
  }
  last_fetch_upload_ = view.upload;
  Result<size_t> owner = tier_->NodeOf(view.room);
  net::NodeId from = tier_->node_net(owner.ok() ? owner.value() : 0);
  PB_SPAN(*probe_, "net.send");
  return tier_->transport()
      ->Send(from, client_nodes_.at(view.slot), prefix,
             kViewTag + std::to_string(step.index))
      .status();
}

Status Replayer::ApplyStep(const Step& step) {
  switch (step.kind) {
    case Step::kEvent:
      return ApplyEvent(trace_.events[step.index]);
    case Step::kUpload:
      return ApplyUpload(step);
    case Step::kView:
      return ApplyView(step);
  }
  return Status::Internal("unknown step kind");
}

void Replayer::NoteReplication(const net::Delivery& delivery) {
  auto shard = follower_shard_.find(delivery.to);
  if (shard == follower_shard_.end()) return;
  if (delivery.tag == "repl.snap") {
    // Wire format (storage/replication.h): u32 shard | u64 epoch | ...
    ByteReader reader(delivery.payload);
    if (reader.GetU32().ok()) {
      Result<uint64_t> epoch = reader.GetU64();
      if (epoch.ok()) {
        follower_epoch_[shard->second] =
            std::max(follower_epoch_[shard->second],
                     static_cast<int64_t>(epoch.value()));
      }
    }
  }
  // An upload is consistent once the follower holds its WAL record, or
  // a checkpoint image taken after it.
  size_t kept = 0;
  for (size_t index : unresolved_uploads_) {
    Upload& upload = uploads_[index];
    int64_t seen = follower_epoch_[upload.shard];
    bool held = seen > static_cast<int64_t>(upload.epoch) ||
                (seen == static_cast<int64_t>(upload.epoch) &&
                 repl_->follower_records(upload.shard, 0) >= upload.ordinal);
    if (held) {
      result_.t2c_micros.push_back(delivery.delivered_at - upload.due);
    } else {
      unresolved_uploads_[kept++] = index;
    }
  }
  unresolved_uploads_.resize(kept);
}

void Replayer::NoteJoin(const net::Delivery& delivery) {
  // A client's initial contents arrive in the order it joined: its last
  // mile is first in, first out.
  auto pending = pending_joins_.find(delivery.to);
  if (pending == pending_joins_.end() || pending->second.empty()) return;
  result_.join_micros.push_back(delivery.delivered_at -
                                pending->second.front());
  pending->second.pop_front();
}

void Replayer::NoteView(const net::Delivery& delivery) {
  const size_t tag_len = sizeof(kViewTag) - 1;
  if (delivery.tag.compare(0, tag_len, kViewTag) != 0) return;
  size_t index = std::stoul(delivery.tag.substr(tag_len));
  if (index >= views_.size() || views_[index].arrived) return;
  views_[index].arrived = true;
  result_.view_micros.push_back(delivery.delivered_at - views_[index].due);
}

void Replayer::Route(std::vector<net::Delivery> batch, bool& ship) {
  for (net::Delivery& delivery : batch) {
    bool consumed = false;
    for (auto& [room, session] : sessions_) {
      if (session->OnDelivery(delivery)) {
        consumed = true;
        break;
      }
    }
    for (size_t i = 0; !consumed && i < tier_->num_nodes(); ++i) {
      consumed = tier_->node(i)->RouteDelivery(delivery);
    }
    if (consumed) continue;
    if (follower_shard_.count(delivery.to) > 0) {
      bool replication = false;
      {
        PB_SPAN(*probe_, "storage.handle_delivery");
        replication = repl_->HandleDelivery(delivery);
      }
      if (replication) {
        NoteReplication(delivery);
        ship = true;
        continue;
      }
    }
    if (delivery.tag == "presentation-delta") {
      NoteDelta(delivery);
    } else if (delivery.tag == "initial-content") {
      NoteJoin(delivery);
    } else {
      NoteView(delivery);
    }
  }
}

Status Replayer::Pump(MicrosT until) {
  // BroadcastDirector::Settle's drive loop (transport, every node's and
  // every session's stream schedulers), bounded at the next step's due
  // time so transfers overlap in virtual time as they would for
  // independent users, plus WAL shipping to the followers.
  PB_SPAN(*probe_, "fanout.settle");
  net::ReliableTransport* transport = tier_->transport();
  bool ship = true;
  bool wakes = true;
  while (true) {
    if (ship) {
      PB_SPAN(*probe_, "storage.ship");
      MMCONF_RETURN_IF_ERROR(repl_->Ship().status());
      ship = false;
    }
    const MicrosT now = clock_.NowMicros();
    MicrosT target = std::max(until, now);
    for (size_t i = 0; wakes && i < tier_->num_nodes(); ++i) {
      MicrosT at = tier_->node(i)->NextStreamActionAt(now);
      if (at >= 0 && at < target) target = std::max(at, now);
    }
    for (auto& [room, session] : sessions_) {
      MicrosT at = wakes ? session->NextActionAt(now) : -1;
      if (at >= 0 && at < target) target = std::max(at, now);
    }
    std::vector<net::Delivery> batch = transport->AdvanceTo(target);
    const bool delivered = !batch.empty();
    Route(std::move(batch), ship);
    size_t sent = 0;
    const MicrosT pump_now = clock_.NowMicros();
    for (size_t i = 0; i < tier_->num_nodes(); ++i) {
      tier_->node(i)->ObserveStreamAcks();
      sent += tier_->node(i)->PumpStreams(pump_now);
    }
    for (auto& [room, session] : sessions_) {
      session->ObserveAcks();
      sent += session->Pump(pump_now);
    }
    const bool progress = delivered || sent > 0 || ship;
    if (!progress && target >= until) break;
    // A scheduler that asks to act now but sends nothing must not spin
    // the loop: skip ahead to the bound until something moves again.
    wakes = progress || target > now;
  }
  PB_SPAN(*probe_, "net.advance");
  client_net_->AdvanceTo(clock_.NowMicros());  // prefetch downlinks
  return Status::OK();
}

Status Replayer::Drain() {
  // Settles to quiescence as the chaos driver does: at the end of the
  // trace, and before a migration.
  PB_SPAN(*probe_, "fanout.settle");
  while (true) {
    std::vector<net::Delivery> drained;
    {
      PB_SPAN(*probe_, "fanout.director_settle");
      MMCONF_ASSIGN_OR_RETURN(drained, director_->Settle());
    }
    bool ship = false;
    Route(std::move(drained), ship);
    storage::ShipReport shipped;
    {
      PB_SPAN(*probe_, "storage.ship");
      MMCONF_ASSIGN_OR_RETURN(shipped, repl_->Ship());
    }
    if (!ship && shipped.batches == 0 && shipped.snapshots == 0) break;
  }
  client_net_->AdvanceUntilIdle();
  return Status::OK();
}

int64_t Replayer::RoomMessages(const std::string& room_id) {
  Result<size_t> owner = tier_->NodeOf(room_id);
  if (!owner.ok()) return -1;
  PB_SPAN(*probe_, "server.room_stats");
  Result<server::RoomReliabilityStats> stats =
      tier_->node(owner.value())->RoomStats(room_id);
  return stats.ok() ? static_cast<int64_t>(stats->messages) : -1;
}

bool Replayer::MayPropagate(const Step& step) const {
  if (step.kind != Step::kEvent) return false;
  EventKind kind = trace_.events[step.index].kind;
  return kind == EventKind::kChoice || kind == EventKind::kOperation ||
         kind == EventKind::kJoin || kind == EventKind::kSetContext ||
         kind == EventKind::kLeave;
}

void Replayer::TrackRound(const WorkloadEvent& event, int64_t before) {
  // A propagation round ships one presentation delta to every member but
  // the one who made the change. Rounds of one room overlap under an open
  // loop, so the room-wide ack watermark (RoomStats) cannot tell them
  // apart; each member's link delivers its deltas in order instead.
  const int64_t after = RoomMessages(event.room);
  if (before < 0 || after < 0) return;
  const int64_t deltas =
      after - before - (event.kind == EventKind::kJoin ? 1 : 0);
  if (deltas <= 0) return;
  const size_t owner = tier_->NodeOf(event.room).value();
  Result<std::map<std::string, net::NodeId>> endpoints =
      tier_->node(owner)->RoomEndpoints(event.room);
  if (!endpoints.ok()) return;
  Round round;
  round.due = event.at;
  // Time to consistency is a user change's: evidence pins and leaves
  // are tracked (they share the links) but not sampled.
  round.sampled = event.kind == EventKind::kChoice ||
                  event.kind == EventKind::kOperation;
  for (const auto& [viewer, node] : endpoints.value()) {
    if (viewer == event.viewer) continue;
    delta_queues_[{tier_->node_net(owner), node}].push_back(rounds_.size());
    ++round.waiting;
  }
  if (static_cast<int64_t>(round.waiting) != deltas) {
    result_.violations.push_back(
        "room " + event.room + " shipped " + std::to_string(deltas) +
        " deltas to " + std::to_string(round.waiting) + " other members");
  }
  rounds_.push_back(round);
}

void Replayer::NoteDelta(const net::Delivery& delivery) {
  auto queue = delta_queues_.find({delivery.from, delivery.to});
  if (queue == delta_queues_.end() || queue->second.empty()) return;
  Round& round = rounds_[queue->second.front()];
  queue->second.pop_front();
  round.last = std::max(round.last, delivery.delivered_at);
  if (--round.waiting == 0 && round.sampled) {
    result_.t2c_micros.push_back(round.last - round.due);
  }
}

void Replayer::Poll(const std::string& closing_room) {
  size_t kept = 0;
  for (size_t i = 0; i < open_streams_.size(); ++i) {
    const OpenStreamInfo& info = open_streams_[i];
    Result<size_t> owner = tier_->NodeOf(info.room);
    Result<stream::StreamStats> stats = Status::NotFound("room closed");
    if (owner.ok()) {
      PB_SPAN(*probe_, "server.stream_stats");
      stats = tier_->node(owner.value())->StreamSessionStats(info.id);
    }
    if (stats.ok() && (stats->finished || stats->aborted ||
                       info.room == closing_room)) {
      const stream::PlayoutStats& playout = stats->playout;
      result_.objects_played += playout.objects_played;
      result_.layers_played += playout.layers_delivered_total;
      result_.stall_micros += playout.total_stall_micros;
      result_.playback_micros +=
          static_cast<int64_t>(playout.objects_played) * info.interval;
    } else {
      open_streams_[kept++] = info;
    }
  }
  open_streams_.resize(kept);
}

Status Replayer::Run() {
  const MicrosT first_due = steps_.empty() ? 0 : steps_.front().at;
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& step = steps_[i];
    result_.late_micros.push_back(
        std::max<MicrosT>(0, clock_.NowMicros() - step.at));
    clock_.AdvanceTo(step.at);
    probe_->SetEvent(probe_->event_base() + i + 1);
    last_fetch_upload_ = SIZE_MAX;
    const int64_t wall_start = WallNanos();
    const int64_t step_cpu_start = CpuNanos();
    Status status;
    {
      PB_SPAN(*probe_, "workload.event");
      if (static_cast<int64_t>(i) == fail_step_) {
        PB_SPAN(*probe_, "federation.submit_choice");
        status = tier_->SubmitChoice("bench-missing-room", "nobody", "CT",
                                     "flat")
                     .status();
      } else {
        const int64_t before =
            MayPropagate(step) ? RoomMessages(trace_.events[step.index].room)
                               : -1;
        status = ApplyStep(step);
        if (before >= 0) TrackRound(trace_.events[step.index], before);
      }
      MMCONF_RETURN_IF_ERROR(i + 1 < steps_.size() ? Pump(steps_[i + 1].at)
                                                   : Drain());
      Poll();
    }
    result_.event_cpu_nanos.push_back(CpuNanos() - step_cpu_start);
    result_.event_nanos.push_back(WallNanos() - wall_start);
    if (last_fetch_upload_ != SIZE_MAX) {
      const Bytes& full = upload_pool_[uploads_[last_fetch_upload_].pool];
      if (last_fetch_.size() > full.size() ||
          !std::equal(last_fetch_.begin(), last_fetch_.end(), full.begin())) {
        result_.violations.push_back(
            "view of upload " + std::to_string(last_fetch_upload_) +
            " fetched a prefix that differs from the uploaded blob");
      }
    }
    ++result_.steps;
    if (!status.ok()) {
      ++result_.failed_steps;
      if (result_.failures.size() < 5) {
        result_.failures.push_back("step " + std::to_string(i) + ": " +
                                   status.ToString());
      }
    }
  }
  result_.sim_micros = clock_.NowMicros() - first_due;
  result_.wire_bytes =
      network_->TotalBytesSent() + client_net_->TotalBytesSent();
  return Status::OK();
}

void Replayer::Check() {
  std::vector<std::string>& violations = result_.violations;
  for (const auto& [room_id, info] : rooms_) {
    if (!info.open) continue;
    Result<size_t> owner = tier_->NodeOf(room_id);
    if (!owner.ok()) {
      violations.push_back("room " + room_id + " vanished while open");
    } else if (!tier_->node(owner.value())->RoomConverged(room_id)) {
      violations.push_back("room " + room_id +
                           " has unsettled reliable messages");
    }
  }
  result_.counters = metrics_.Snapshot();
  auto counter = [this](const std::string& name) -> uint64_t {
    auto found = result_.counters.counters.find(name);
    return found != result_.counters.counters.end() ? found->second : 0;
  };
  if (counter("stream.aborts") > 0) {
    violations.push_back(std::to_string(counter("stream.aborts")) +
                         " stream(s) lost a base layer");
  }
  for (size_t s = 0; s < repl_->num_shards(); ++s) {
    if (repl_->follower_diverged(s, 0)) {
      violations.push_back("shard " + std::to_string(s) +
                           " follower diverged");
    }
  }
  if (!unresolved_uploads_.empty()) {
    violations.push_back(std::to_string(unresolved_uploads_.size()) +
                         " upload(s) never reached the follower");
  }
  if (!open_streams_.empty()) {
    violations.push_back(std::to_string(open_streams_.size()) +
                         " stream(s) never finished");
  }
  size_t open_rounds = 0;
  for (const Round& round : rounds_) open_rounds += round.waiting > 0;
  if (open_rounds > 0) {
    violations.push_back(std::to_string(open_rounds) +
                         " propagation round(s) never reached every member");
  }
  size_t lost_joins = 0;
  for (const auto& [node, dues] : pending_joins_) lost_joins += dues.size();
  if (lost_joins > 0) {
    violations.push_back(std::to_string(lost_joins) +
                         " join(s) never received their initial content");
  }
  size_t lost_views = 0;
  for (const View& view : views_) lost_views += view.arrived ? 0 : 1;
  if (lost_views > 0) {
    violations.push_back(std::to_string(lost_views) +
                         " image view(s) never arrived");
  }
}

}  // namespace mmconf::perfbench
