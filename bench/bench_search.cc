// S1 (extension) — the intro's intelligent-retrieval scenario: "similar
// cases from the same database" via content descriptors, and supporting
// "views with articles" via TF-IDF text retrieval. Reports retrieval
// quality on a labeled synthetic archive plus query throughput.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "media/synthetic.h"
#include "search/similarity_index.h"
#include "search/text_index.h"
#include "storage/database.h"

namespace {

using namespace mmconf;
using search::SimilarityHit;
using search::SimilarityIndex;
using search::TextIndex;
using storage::DatabaseServer;
using storage::ObjectRef;

/// Archive of phantoms in two "pathology classes": few large structures
/// vs many small ones. A good descriptor retrieves same-class neighbours.
struct Archive {
  DatabaseServer db;
  std::vector<ObjectRef> refs;
  std::vector<int> labels;
  std::unique_ptr<SimilarityIndex> index;

  explicit Archive(int per_class) {
    db.RegisterStandardTypes().ok();
    Rng rng(99);
    for (int cls = 0; cls < 2; ++cls) {
      for (int i = 0; i < per_class; ++i) {
        media::PhantomOptions options;
        options.width = 128;
        options.height = 128;
        options.num_structures = cls == 0 ? 2 : 12;
        options.noise_stddev = 2.0;
        media::Image image = media::MakePhantomCt(options, rng);
        ObjectRef ref = db.Store("Image",
                                 {{"FLD_QUALITY", int64_t{90}},
                                  {"FLD_TEXTS",
                                   std::string(cls == 0 ? "sparse"
                                                        : "dense")},
                                  {"FLD_CM", std::string("t")}},
                                 {{"FLD_DATA", image.Encode()}})
                            .value();
        refs.push_back(ref);
        labels.push_back(cls);
      }
    }
    index = std::make_unique<SimilarityIndex>(&db);
    index->AddAllImages().value();
  }
};

void PrintRetrievalQuality() {
  std::printf("== S1: similar-case retrieval quality "
              "(2 pathology classes, 20 images each) ==\n");
  Archive archive(20);
  std::printf("%-6s %s\n", "k", "same-class precision@k");
  for (int k : {1, 3, 5}) {
    double precision_sum = 0;
    for (size_t q = 0; q < archive.refs.size(); ++q) {
      std::vector<SimilarityHit> hits =
          archive.index->QuerySimilarTo(archive.refs[q], k).value();
      int same = 0;
      for (const SimilarityHit& hit : hits) {
        for (size_t j = 0; j < archive.refs.size(); ++j) {
          if (archive.refs[j] == hit.ref &&
              archive.labels[j] == archive.labels[q]) {
            ++same;
          }
        }
      }
      precision_sum +=
          static_cast<double>(same) / static_cast<double>(hits.size());
    }
    std::printf("%-6d %.3f\n", k,
                precision_sum / static_cast<double>(archive.refs.size()));
  }

  std::printf("\n== S1: text retrieval over consultation notes ==\n");
  DatabaseServer db;
  db.RegisterStandardTypes().ok();
  const char* notes[] = {
      "ct shows a lesion in the left lung upper lobe",
      "lungs clear no abnormality detected on ct",
      "echo normal ejection fraction no pericardial effusion",
      "followup the lung lesion is stable in size",
      "mri brain unremarkable no mass lesion",
  };
  for (const char* note : notes) {
    std::string text(note);
    db.Store("Text", {{"FLD_TITLE", std::string("note")}},
             {{"FLD_DATA", Bytes(text.begin(), text.end())}})
        .value();
  }
  TextIndex text_index(&db);
  text_index.AddAllTexts().value();
  for (const char* query : {"lung lesion", "ejection fraction"}) {
    auto hits = text_index.Query(query, 3).value();
    std::printf("query \"%s\": %zu hits, top object #%llu (score %.3f)\n",
                query, hits.size(),
                static_cast<unsigned long long>(hits.empty()
                                                    ? 0
                                                    : hits[0].ref.id),
                hits.empty() ? 0.0 : hits[0].score);
  }
  std::printf("\n");
}

void BM_SimilarityQuery(benchmark::State& state) {
  Archive archive(static_cast<int>(state.range(0)));
  Rng rng(5);
  media::Image query = media::MakePhantomCt({128, 128, 5, 2.0}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(archive.index->QueryImage(query, 5));
  }
  state.counters["indexed"] = static_cast<double>(archive.refs.size());
}
BENCHMARK(BM_SimilarityQuery)->Arg(10)->Arg(50);

void BM_DescribeImage(benchmark::State& state) {
  Rng rng(6);
  media::Image image = media::MakePhantomCt({256, 256, 5, 2.0}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(search::DescribeImage(image));
  }
}
BENCHMARK(BM_DescribeImage);

void BM_TextQuery(benchmark::State& state) {
  DatabaseServer db;
  db.RegisterStandardTypes().ok();
  Rng rng(7);
  const char* vocabulary[] = {"lesion", "lung",  "ct",    "normal",
                              "stable", "brain", "heart", "report"};
  for (int i = 0; i < 200; ++i) {
    std::string text;
    for (int w = 0; w < 30; ++w) {
      text += vocabulary[rng.NextBelow(8)];
      text += ' ';
    }
    db.Store("Text", {{"FLD_TITLE", std::string("n")}},
             {{"FLD_DATA", Bytes(text.begin(), text.end())}})
        .value();
  }
  TextIndex index(&db);
  index.AddAllTexts().value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query("lung lesion stable", 10));
  }
}
BENCHMARK(BM_TextQuery);

}  // namespace

int main(int argc, char** argv) {
  return mmconf::bench::FigureBenchMain(argc, argv, PrintRetrievalQuality);
}
