// F10 — Speaker identification (the paper's Fig. 10) and the rest of the
// voice module: automatic segmentation accuracy, text-independent speaker
// spotting accuracy (overall and vs. segment length), word spotting
// operating point, plus throughput benchmarks of the CD-HMM machinery.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "audio/segmentation.h"
#include "audio/speaker_spotting.h"
#include "audio/word_spotting.h"
#include "common/rng.h"
#include "harness.h"
#include "media/synthetic.h"

namespace {

using namespace mmconf;
using media::AudioClass;
using media::AudioSegment;
using media::AudioSignal;

struct VoiceBed {
  std::vector<media::SpeakerProfile> speakers;
  std::vector<media::Word> vocab;
  std::vector<media::Conversation> train;
  media::Conversation test;
  audio::AudioSegmenter segmenter;
  audio::SpeakerSpotter speaker_spotter;
  audio::WordSpotter word_spotter;

  VoiceBed() {
    Rng rng(515);
    speakers = media::MakeSpeakers(3, rng);
    vocab = media::MakeVocabulary(4, 3, 6, rng);
    media::ConversationOptions options;
    options.num_turns = 10;
    options.words_per_turn = 2;
    options.music_probability = 0.3;
    options.artifact_probability = 0.3;
    for (int i = 0; i < 3; ++i) {
      train.push_back(media::MakeConversation(speakers, vocab, options, rng));
    }
    test = media::MakeConversation(speakers, vocab, options, rng);

    Rng seg_rng(1);
    segmenter.TrainFromConversations(train, seg_rng).ok();
    std::map<int, std::vector<AudioSignal>> by_speaker, by_keyword;
    std::vector<AudioSignal> garbage;
    for (const media::Conversation& conv : train) {
      for (const AudioSegment& segment : conv.segments) {
        if (segment.cls != AudioClass::kSpeech) continue;
        AudioSignal span = conv.signal.Slice(segment.begin, segment.end);
        by_speaker[segment.speaker].push_back(span);
        if (segment.keyword <= 1) {
          by_keyword[segment.keyword].push_back(span);
        } else {
          garbage.push_back(span);
        }
      }
    }
    Rng spk_rng(2);
    speaker_spotter.Train(by_speaker, {}, spk_rng).ok();
    Rng word_rng(3);
    word_spotter.Train(by_keyword, garbage, word_rng).ok();
  }
};

VoiceBed& Bed() {
  static VoiceBed* bed = new VoiceBed();
  return *bed;
}

void PrintFigure10() {
  VoiceBed& bed = Bed();
  const int rate = bed.test.signal.sample_rate();

  std::vector<AudioSegment> hypothesis =
      bed.segmenter.Segment(bed.test.signal).value();
  double seg_accuracy = audio::SegmentationFrameAccuracy(
      hypothesis, bed.test.segments, bed.test.signal.size());
  std::printf("== F10: automatic audio segmentation ==\n");
  std::printf("recording %.1f s -> %zu segments, frame accuracy %.1f%%\n\n",
              bed.test.signal.DurationSeconds(), hypothesis.size(),
              seg_accuracy * 100);

  std::printf("== F10: speaker spotting (text-independent) ==\n");
  std::vector<audio::SpeakerDetection> detections =
      bed.speaker_spotter.Spot(bed.test.signal, bed.test.segments).value();
  double accuracy =
      audio::SpeakerSpottingAccuracy(detections, bed.test.segments);
  std::printf("segment attribution accuracy: %.1f%% (chance 33%%)\n",
              accuracy * 100);
  std::printf("speakers counted: %d (truth: 3 key speakers)\n\n",
              bed.speaker_spotter
                  .CountSpeakers(bed.test.signal, bed.test.segments)
                  .value());

  std::printf("accuracy vs segment length:\n%-14s %-10s %s\n", "length(s)",
              "segments", "accuracy");
  for (double max_seconds : {0.2, 0.4, 0.8, 10.0}) {
    int total = 0, correct = 0;
    for (const AudioSegment& segment : bed.test.segments) {
      if (segment.cls != AudioClass::kSpeech) continue;
      double seconds = static_cast<double>(segment.length()) / rate;
      if (seconds > max_seconds) continue;
      auto detection = bed.speaker_spotter.ScoreSpan(
          bed.test.signal, segment.begin, segment.end);
      if (!detection.ok()) continue;
      ++total;
      if (detection->speaker == segment.speaker) ++correct;
    }
    if (total > 0) {
      std::printf("<= %-10.1f %-10d %.1f%%\n", max_seconds, total,
                  100.0 * correct / total);
    }
  }

  std::printf("\n== F10: word spotting operating point ==\n");
  std::vector<audio::WordDetection> word_hits =
      bed.word_spotter.Spot(bed.test.signal, bed.test.segments).value();
  std::vector<AudioSegment> watched = bed.test.segments;
  for (AudioSegment& segment : watched) {
    if (segment.keyword > 1) segment.keyword = -1;
  }
  audio::SpottingScore score =
      audio::ScoreWordSpotting(word_hits, watched);
  std::printf("detections=%d false-alarms=%d misses=%d rate=%.1f%%\n\n",
              score.true_detections, score.false_alarms, score.misses,
              score.DetectionRate() * 100);
}

void BM_FeatureExtraction(benchmark::State& state) {
  VoiceBed& bed = Bed();
  audio::FeatureOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        audio::ExtractFeatures(bed.test.signal, options));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bed.test.signal.size() * 4));
}
BENCHMARK(BM_FeatureExtraction);

void BM_Segment(benchmark::State& state) {
  VoiceBed& bed = Bed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.segmenter.Segment(bed.test.signal));
  }
}
BENCHMARK(BM_Segment);

void BM_SpeakerScoreSpan(benchmark::State& state) {
  VoiceBed& bed = Bed();
  // First speech segment.
  const AudioSegment* speech = nullptr;
  for (const AudioSegment& segment : bed.test.segments) {
    if (segment.cls == AudioClass::kSpeech) {
      speech = &segment;
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.speaker_spotter.ScoreSpan(
        bed.test.signal, speech->begin, speech->end));
  }
}
BENCHMARK(BM_SpeakerScoreSpan);

void BM_WordScoreSpan(benchmark::State& state) {
  VoiceBed& bed = Bed();
  const AudioSegment* speech = nullptr;
  for (const AudioSegment& segment : bed.test.segments) {
    if (segment.cls == AudioClass::kSpeech) {
      speech = &segment;
      break;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed.word_spotter.ScoreSpan(
        bed.test.signal, speech->begin, speech->end));
  }
}
BENCHMARK(BM_WordScoreSpan);

}  // namespace

int main(int argc, char** argv) {
  return mmconf::bench::FigureBenchMain(argc, argv, PrintFigure10);
}
