// Save/load of the database tier: ObjectRefs must survive a snapshot
// round trip, blob payloads must be byte-identical, and damage must be
// detected — the durability story the paper delegates to Oracle.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/database.h"

namespace mmconf::storage {
namespace {

Bytes RandomBytes(size_t n, Rng& rng) {
  Bytes data(n);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.RegisterStandardTypes().ok());
    Rng rng(42);
    image_payload_ = RandomBytes(50000, rng);
    image_ref_ = db_.Store("Image",
                           {{"FLD_QUALITY", int64_t{90}},
                            {"FLD_TEXTS", std::string("chest ct")},
                            {"FLD_CM", std::string("slice 3")}},
                           {{"FLD_DATA", image_payload_}})
                     .value();
    text_ref_ = db_.Store("Text", {{"FLD_TITLE", std::string("note")}},
                          {{"FLD_DATA", Bytes{1, 2, 3}}})
                    .value();
    // Create then delete an object so restored id allocation has a gap.
    ObjectRef doomed =
        db_.Store("Text", {{"FLD_TITLE", std::string("tmp")}},
                  {{"FLD_DATA", Bytes{9}}})
            .value();
    ASSERT_TRUE(db_.Delete(doomed).ok());
    survivor_ref_ = db_.Store("Text", {{"FLD_TITLE", std::string("keep")}},
                              {{"FLD_DATA", Bytes{4, 5}}})
                        .value();
  }

  DatabaseServer db_;
  Bytes image_payload_;
  ObjectRef image_ref_, text_ref_, survivor_ref_;
};

TEST_F(PersistenceTest, SnapshotRoundTripPreservesRefs) {
  Bytes snapshot = db_.Serialize();
  DatabaseServer restored;
  ASSERT_TRUE(restored.LoadFrom(snapshot).ok());
  EXPECT_EQ(restored.FetchBlob(image_ref_, "FLD_DATA").value(),
            image_payload_);
  ObjectRecord record = restored.FetchRecord(image_ref_).value();
  EXPECT_EQ(std::get<int64_t>(record.fields.at("FLD_QUALITY")), 90);
  EXPECT_EQ(restored.FetchBlob(survivor_ref_, "FLD_DATA").value(),
            (Bytes{4, 5}));
  EXPECT_EQ(restored.List("Text").value().size(), 2u);
}

TEST_F(PersistenceTest, SnapshotIsCanonicalAfterDeleteAndModify) {
  // The fixture deleted one blob; replacing another's payload moves it
  // to a fresh store-local BlobId as well. A restored database holds
  // different BlobIds for the same rows, and must still serialize to
  // exactly the image it was loaded from.
  Rng rng(43);
  ASSERT_TRUE(db_.Modify(image_ref_, {{"FLD_QUALITY", int64_t{70}}},
                         {{"FLD_DATA", RandomBytes(3000, rng)}})
                  .ok());
  Bytes snapshot = db_.Serialize();
  DatabaseServer restored;
  ASSERT_TRUE(restored.LoadFrom(snapshot).ok());
  EXPECT_EQ(restored.Serialize(), snapshot);
  DatabaseServer again;
  ASSERT_TRUE(again.LoadFrom(restored.Serialize()).ok());
  EXPECT_EQ(again.Serialize(), snapshot);
}

TEST_F(PersistenceTest, RestoredDatabaseAllocatesFreshIdsAboveOld) {
  Bytes snapshot = db_.Serialize();
  DatabaseServer restored;
  ASSERT_TRUE(restored.LoadFrom(snapshot).ok());
  ObjectRef fresh =
      restored.Store("Text", {{"FLD_TITLE", std::string("new")}},
                     {{"FLD_DATA", Bytes{7}}})
          .value();
  EXPECT_GT(fresh.id, survivor_ref_.id);
  // Old objects still fetchable.
  EXPECT_TRUE(restored.FetchRecord(text_ref_).ok());
}

TEST_F(PersistenceTest, CorruptedSnapshotRejected) {
  Bytes snapshot = db_.Serialize();
  snapshot[snapshot.size() / 2] ^= 0xff;
  DatabaseServer restored;
  EXPECT_TRUE(restored.LoadFrom(snapshot).IsCorruption());
  Bytes truncated(snapshot.begin(), snapshot.begin() + 10);
  DatabaseServer restored2;
  EXPECT_TRUE(restored2.LoadFrom(truncated).IsCorruption());
}

TEST_F(PersistenceTest, LoadIntoNonEmptyDatabaseRefused) {
  Bytes snapshot = db_.Serialize();
  EXPECT_TRUE(db_.LoadFrom(snapshot).IsFailedPrecondition());
}

TEST_F(PersistenceTest, TruncatedSnapshotFileIsCorruptionNotCrash) {
  Bytes full = db_.Serialize();
  // A snapshot cut short at any point — including into the trailing CRC
  // — must surface as Corruption, never a crash or a partial load.
  for (size_t keep : {size_t{0}, size_t{3}, size_t{7}, full.size() / 2,
                      full.size() - 2}) {
    Bytes truncated(full.begin(), full.begin() + keep);
    DatabaseServer restored;
    EXPECT_TRUE(restored.LoadFrom(truncated).IsCorruption())
        << "truncated to " << keep << " bytes";
  }
}

TEST(PersistenceEmptyTest, EmptyDatabaseRoundTrips) {
  DatabaseServer db;
  Bytes snapshot = db.Serialize();
  DatabaseServer restored;
  EXPECT_TRUE(restored.LoadFrom(snapshot).ok());
  EXPECT_TRUE(restored.catalog().ListTypes().empty());
}

}  // namespace
}  // namespace mmconf::storage
