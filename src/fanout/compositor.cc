#include "fanout/compositor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "imaging/ops.h"

namespace mmconf::fanout {

using media::AudioClass;
using media::AudioSegment;
using media::AudioSignal;
using media::Image;
using media::Rect;

uint64_t SpeakerTieRank(uint64_t seed, int speaker) {
  // Mix64 is a bijection, so two distinct speakers never collide under
  // the same seed and the ranking depends on nothing but (seed, id).
  return Mix64(seed ^ static_cast<uint64_t>(static_cast<int64_t>(speaker)));
}

namespace {

// Speech samples of `track` inside [begin, end).
size_t SpeechOverlap(const SpeakerTrack& track, size_t begin, size_t end) {
  size_t overlap = 0;
  for (const AudioSegment& segment : track.segments) {
    if (segment.cls != AudioClass::kSpeech) continue;
    size_t lo = std::max(segment.begin, begin);
    size_t hi = std::min(segment.end, end);
    if (hi > lo) overlap += hi - lo;
  }
  return overlap;
}

}  // namespace

Result<MixResult> MixActiveSpeakers(const std::vector<SpeakerTrack>& tracks,
                                    size_t total_samples, int sample_rate,
                                    const MixOptions& options) {
  if (sample_rate <= 0) {
    return Status::InvalidArgument("mix sample rate must be positive");
  }
  if (options.window_micros <= 0) {
    return Status::InvalidArgument("mix window must be positive");
  }
  if (options.max_active == 0) {
    return Status::InvalidArgument("mix needs at least one active slot");
  }
  for (const SpeakerTrack& track : tracks) {
    if (track.signal == nullptr) {
      return Status::InvalidArgument("speaker track has no signal");
    }
    if (track.signal->sample_rate() != sample_rate) {
      return Status::InvalidArgument("speaker track sample rate mismatch");
    }
  }

  // Canonical order: ascending speaker id. Selection below depends only
  // on this order, activity, and the seeded rank — never on how the
  // caller happened to arrange the vector.
  std::vector<size_t> order(tracks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return tracks[a].speaker < tracks[b].speaker;
  });
  for (size_t i = 1; i < order.size(); ++i) {
    if (tracks[order[i - 1]].speaker == tracks[order[i]].speaker) {
      return Status::InvalidArgument("duplicate speaker id in mix");
    }
  }

  size_t window_samples = static_cast<size_t>(
      static_cast<unsigned long long>(options.window_micros) * sample_rate /
      1000000ull);
  if (window_samples == 0) window_samples = 1;

  MixResult result;
  result.mixed =
      AudioSignal(std::vector<float>(total_samples, 0.0f), sample_rate);
  result.windows =
      (total_samples + window_samples - 1) / window_samples;
  result.active_per_window.reserve(result.windows);

  struct Candidate {
    size_t track;
    size_t activity;
    uint64_t rank;
    int speaker;
  };
  for (size_t w = 0; w < result.windows; ++w) {
    size_t begin = w * window_samples;
    size_t end = std::min(total_samples, begin + window_samples);
    std::vector<Candidate> candidates;
    for (size_t idx : order) {
      size_t activity = SpeechOverlap(tracks[idx], begin, end);
      if (activity == 0) continue;
      candidates.push_back({idx, activity,
                            SpeakerTieRank(options.tie_seed,
                                           tracks[idx].speaker),
                            tracks[idx].speaker});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.activity != b.activity) return a.activity > b.activity;
                if (a.rank != b.rank) return a.rank < b.rank;
                return a.speaker < b.speaker;
              });
    size_t selected = std::min(options.max_active, candidates.size());
    if (selected > 0 && selected < candidates.size() &&
        candidates[selected - 1].activity == candidates[selected].activity) {
      ++result.ties_broken;  // the seeded rank decided the cut
    }

    std::vector<int> active;
    active.reserve(selected);
    for (size_t i = 0; i < selected; ++i) {
      active.push_back(candidates[i].speaker);
    }
    if (selected > 0) {
      float scale = 1.0f / static_cast<float>(selected);
      for (size_t i = 0; i < selected; ++i) {
        const std::vector<float>& samples =
            tracks[candidates[i].track].signal->samples();
        size_t hi = std::min(end, samples.size());
        for (size_t s = begin; s < hi; ++s) {
          result.mixed.mutable_samples()[s] += samples[s] * scale;
        }
      }
      for (size_t s = begin; s < end; ++s) {
        float& v = result.mixed.mutable_samples()[s];
        v = std::clamp(v, -1.0f, 1.0f);
      }
    }
    result.active_per_window.push_back(std::move(active));
  }
  return result;
}

Result<Image> ComposeMosaic(const std::vector<Image>& sources,
                            const MosaicOptions& options) {
  if (options.width <= 0 || options.height <= 0) {
    return Status::InvalidArgument("mosaic canvas must be non-empty");
  }
  MMCONF_ASSIGN_OR_RETURN(
      Image canvas,
      Image::Create(options.width, options.height, options.background));
  if (sources.empty()) return canvas;  // bare background: nobody on screen

  size_t n = sources.size();
  int cols = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  int rows = static_cast<int>((n + cols - 1) / static_cast<size_t>(cols));
  MMCONF_ASSIGN_OR_RETURN(
      std::vector<Rect> cells,
      imaging::GridCells(options.width, options.height, rows, cols));

  for (size_t i = 0; i < n; ++i) {
    const Image& source = sources[i];
    if (source.empty()) {
      return Status::InvalidArgument("mosaic source image is empty");
    }
    const Rect& cell = cells[i];
    // Collaborative markup (text/line overlays) belongs in the composed
    // picture, so rasterize it before resampling.
    Image flat = (source.text_elements().empty() &&
                  source.line_elements().empty())
                     ? source
                     : source.Flatten();
    MMCONF_ASSIGN_OR_RETURN(
        Image tile,
        imaging::Zoom(flat, flat.Bounds(), cell.width, cell.height));
    for (int y = 0; y < cell.height; ++y) {
      for (int x = 0; x < cell.width; ++x) {
        canvas.set(cell.x + x, cell.y + y, tile.at(x, y));
      }
    }
  }
  if (options.draw_borders) {
    for (const Rect& cell : cells) {
      int right = cell.x + cell.width - 1;
      int bottom = cell.y + cell.height - 1;
      for (int y = cell.y; y <= bottom; ++y) {
        canvas.set(right, y, options.border_intensity);
      }
      for (int x = cell.x; x <= right; ++x) {
        canvas.set(x, bottom, options.border_intensity);
      }
    }
  }
  return canvas;
}

Compositor::Compositor(CompositorOptions options)
    : options_(std::move(options)) {}

void Compositor::SetObserver(obs::MetricsRegistry* metrics,
                             obs::Tracer* tracer) {
  tracer_ = tracer;
  if (metrics != nullptr) {
    m_frames_ = metrics->GetCounter("mix.frames");
    m_windows_ = metrics->GetCounter("mix.windows");
    m_ties_ = metrics->GetCounter("mix.ties_broken");
    m_active_ = metrics->GetCounter("mix.active_selected");
    m_video_bytes_ = metrics->GetHistogram(
        "mix.video_bytes", {1024, 4096, 16384, 65536, 262144});
  } else {
    m_frames_ = m_windows_ = m_ties_ = m_active_ = nullptr;
    m_video_bytes_ = nullptr;
  }
}

Result<std::vector<ComposedFrame>> Compositor::ComposeFrame(
    uint32_t index, const std::vector<Image>& images,
    const std::vector<SpeakerTrack>& tracks) const {
  if (options_.frame_interval_micros <= 0) {
    return Status::InvalidArgument("frame interval must be positive");
  }
  int sample_rate = 16000;
  if (!tracks.empty() && tracks[0].signal != nullptr) {
    sample_rate = tracks[0].signal->sample_rate();
  }
  size_t frame_samples = static_cast<size_t>(
      static_cast<unsigned long long>(options_.frame_interval_micros) *
      sample_rate / 1000000ull);
  if (frame_samples == 0) frame_samples = 1;
  size_t frame_begin = static_cast<size_t>(index) * frame_samples;

  // Cut each track down to this frame's window so the mixer scores
  // activity locally (a handoff flips the selection next frame, not at
  // the end of the lecture).
  std::vector<AudioSignal> slices;
  slices.reserve(tracks.size());
  std::vector<SpeakerTrack> frame_tracks;
  frame_tracks.reserve(tracks.size());
  for (const SpeakerTrack& track : tracks) {
    if (track.signal == nullptr) {
      return Status::InvalidArgument("speaker track has no signal");
    }
    slices.push_back(
        track.signal->Slice(frame_begin, frame_begin + frame_samples));
    SpeakerTrack local;
    local.speaker = track.speaker;
    for (const AudioSegment& segment : track.segments) {
      size_t lo = std::max(segment.begin, frame_begin);
      size_t hi = std::min(segment.end, frame_begin + frame_samples);
      if (hi <= lo) continue;
      AudioSegment shifted = segment;
      shifted.begin = lo - frame_begin;
      shifted.end = hi - frame_begin;
      local.segments.push_back(shifted);
    }
    frame_tracks.push_back(std::move(local));
  }
  for (size_t i = 0; i < frame_tracks.size(); ++i) {
    frame_tracks[i].signal = &slices[i];
  }

  MMCONF_ASSIGN_OR_RETURN(
      MixResult mix,
      MixActiveSpeakers(frame_tracks, frame_samples, sample_rate,
                        options_.mix));
  Bytes audio = mix.mixed.Encode();
  std::vector<int> active_speakers;
  for (const std::vector<int>& window : mix.active_per_window) {
    for (int speaker : window) {
      if (std::find(active_speakers.begin(), active_speakers.end(),
                    speaker) == active_speakers.end()) {
        active_speakers.push_back(speaker);
      }
    }
  }

  compress::LayeredCodec codec(options_.codec);
  const std::pair<doc::BandwidthLevel, int> classes[] = {
      {doc::BandwidthLevel::kHigh, options_.high_px},
      {doc::BandwidthLevel::kMedium, options_.medium_px},
      {doc::BandwidthLevel::kLow, options_.low_px},
  };
  std::vector<ComposedFrame> frames;
  frames.reserve(3);
  for (const auto& [level, px] : classes) {
    MosaicOptions mosaic = options_.mosaic;
    mosaic.width = px;
    mosaic.height = px;
    MMCONF_ASSIGN_OR_RETURN(Image composed, ComposeMosaic(images, mosaic));
    MMCONF_ASSIGN_OR_RETURN(Bytes video, codec.Encode(composed));
    ComposedFrame frame;
    frame.index = index;
    frame.level = level;
    frame.video = std::move(video);
    frame.audio = audio;
    frame.active_speakers = active_speakers;
    if (m_video_bytes_ != nullptr) {
      m_video_bytes_->Observe(static_cast<int64_t>(frame.video.size()));
    }
    frames.push_back(std::move(frame));
  }

  if (m_frames_ != nullptr) {
    m_frames_->Add(1);
    m_windows_->Add(mix.windows);
    m_ties_->Add(mix.ties_broken);
    size_t selected = 0;
    for (const std::vector<int>& window : mix.active_per_window) {
      selected += window.size();
    }
    m_active_->Add(selected);
  }
  if (tracer_ != nullptr) {
    tracer_->Instant(0, 0, "compose_frame", "mix", "frame",
                     static_cast<int64_t>(index));
  }
  return frames;
}

}  // namespace mmconf::fanout
