#include "lsm/write_batch.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "lsm/comparator.h"
#include "lsm/db.h"
#include "lsm/log_writer.h"
#include "lsm/memtable.h"
#include "lsm/sharded_db.h"
#include "lsm/value_log.h"
#include "vfs/mem_vfs.h"

namespace lsmio::lsm {
namespace {

// The ops a batch contains in order, and the reader's final status.
struct Recorded {
  std::vector<std::string> ops;
  Status status;
};

Recorded ReadOps(const WriteBatch& batch) {
  Recorded rec;
  WriteBatch::Op op;
  WriteBatch::Reader reader(batch);
  while (reader.Next(&op)) {
    if (op.type == ValueType::kDeletion) {
      rec.ops.push_back("Delete(" + op.key.ToString() + ")");
    } else {
      const char* name = op.type == ValueType::kValuePointer ? "PutPointer(" : "Put(";
      rec.ops.push_back(name + op.key.ToString() + "," + op.value.ToString() + ")");
    }
  }
  rec.status = reader.status();
  return rec;
}

// A batch whose serialized form is `rep`.
WriteBatch FromRep(const std::string& rep) {
  WriteBatch batch;
  EXPECT_TRUE(WriteBatch::SetContents(&batch, rep).ok());
  return batch;
}

std::string Rep(const WriteBatch& batch) { return batch.Contents().ToString(); }

TEST(WriteBatchTest, EmptyBatch) {
  WriteBatch batch;
  EXPECT_EQ(batch.Count(), 0);
  const Recorded rec = ReadOps(batch);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_TRUE(rec.ops.empty());
}

TEST(WriteBatchTest, OpsPreserveOrder) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Delete("b");
  batch.Put("c", "3");
  batch.PutPointer("d", "ptr");
  EXPECT_EQ(batch.Count(), 4);

  const Recorded rec = ReadOps(batch);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_EQ(rec.ops, (std::vector<std::string>{"Put(a,1)", "Delete(b)", "Put(c,3)",
                                               "PutPointer(d,ptr)"}));
}

TEST(WriteBatchTest, SequenceRoundTrip) {
  WriteBatch batch;
  batch.SetSequence(0xdeadbeefULL);
  EXPECT_EQ(batch.Sequence(), 0xdeadbeefULL);
}

TEST(WriteBatchTest, AppendConcatenates) {
  WriteBatch a;
  a.Put("x", "1");
  WriteBatch b;
  b.Put("y", "2");
  b.Delete("z");
  a.Append(b);
  EXPECT_EQ(a.Count(), 3);

  const Recorded rec = ReadOps(a);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_EQ(rec.ops, (std::vector<std::string>{"Put(x,1)", "Put(y,2)", "Delete(z)"}));
}

TEST(WriteBatchTest, ClearEmpties) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Clear();
  EXPECT_EQ(batch.Count(), 0);
  EXPECT_EQ(batch.Sequence(), 0u);
}

TEST(WriteBatchTest, ContentsRoundTripThroughSetContents) {
  WriteBatch a;
  a.SetSequence(42);
  a.Put("key", "value");
  a.Delete("gone");

  WriteBatch b;
  ASSERT_TRUE(WriteBatch::SetContents(&b, a.Contents()).ok());
  EXPECT_EQ(b.Count(), 2);
  EXPECT_EQ(b.Sequence(), 42u);

  const Recorded rec = ReadOps(b);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_EQ(rec.ops, (std::vector<std::string>{"Put(key,value)", "Delete(gone)"}));
}

TEST(WriteBatchTest, SetContentsRejectsTruncated) {
  WriteBatch b;
  EXPECT_TRUE(WriteBatch::SetContents(&b, Slice("short", 5)).IsCorruption());
}

TEST(WriteBatchTest, ReaderDetectsCountMismatch) {
  WriteBatch a;
  a.Put("k1", "v1");
  a.Delete("k2");
  for (const int count : {1, 3, 5}) {  // one too low, one too high, far off
    std::string rep = Rep(a);
    rep[8] = static_cast<char>(count);  // corrupt the count field
    EXPECT_TRUE(ReadOps(FromRep(rep)).status.IsCorruption()) << "count " << count;
  }
}

TEST(WriteBatchTest, ReaderRejectsMalformedRecords) {
  WriteBatch a;
  a.Put("key", "value");
  // Header (12), tag (1), key length (1), "key" (3), value length (1),
  // "value" (5).
  const std::string rep = Rep(a);
  std::string unknown_tag = rep;
  unknown_tag[12] = 0x7f;
  for (const std::string& bad : {rep.substr(0, 16) /* inside the key */,
                                 rep.substr(0, 22) /* inside the value */, unknown_tag}) {
    EXPECT_TRUE(ReadOps(FromRep(bad)).status.IsCorruption()) << bad.size() << " bytes";
  }
}

TEST(WriteBatchTest, InsertIntoAssignsSequentialSequences) {
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* mem = new MemTable(icmp);
  mem->Ref();

  WriteBatch batch;
  batch.SetSequence(100);
  batch.Put("a", "va");
  batch.Put("b", "vb");
  batch.Delete("a");
  WriteBatch::Applied applied;
  ASSERT_TRUE(batch.InsertInto(mem, nullptr, &applied).ok());
  EXPECT_EQ(applied.puts, 2U);
  EXPECT_EQ(applied.deletes, 1U);

  // "a" was deleted at sequence 102, put at 100.
  std::string value;
  Status s;
  ASSERT_TRUE(mem->Get(LookupKey("a", 200), &value, &s));
  EXPECT_TRUE(s.IsNotFound());
  ASSERT_TRUE(mem->Get(LookupKey("a", 101), &value, &s));
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(value, "va");
  ASSERT_TRUE(mem->Get(LookupKey("b", 200), &value, &s));
  EXPECT_EQ(value, "vb");

  mem->Unref();
}

TEST(WriteBatchTest, ApproximateSizeGrowsWithPayload) {
  WriteBatch batch;
  const size_t empty = batch.ApproximateSize();
  batch.Put("key", std::string(1000, 'v'));
  EXPECT_GT(batch.ApproximateSize(), empty + 1000);
}

TEST(WriteBatchTest, BinaryKeysAndValuesSurvive) {
  WriteBatch batch;
  const std::string key("\x00\x01\xff\xfe", 4);
  const std::string value("\x00zero\x00embedded", 14);
  batch.Put(key, value);

  const Recorded rec = ReadOps(batch);
  ASSERT_TRUE(rec.status.ok());
  EXPECT_EQ(rec.ops[0], "Put(" + key + "," + value + ")");
}

// --- seeded mutation test ------------------------------------------------------
//
// Valid batches of Put, PutPointer and Delete ops are mutated by byte flips,
// truncation, inflated length varints and a rewritten count. Every case
// must end OK or Corruption at each decoder it reaches: SetContents, the
// reader, InsertInto, and WAL replay in DB::Open.

// A valid random batch, with the offset of each length varint in its rep.
struct Encoded {
  std::string rep;
  std::vector<size_t> length_fields;
};

Encoded RandomBatch(Rng& rng) {
  WriteBatch batch;
  batch.SetSequence(1 + rng.Uniform(1000));
  Encoded out;
  const uint64_t ops = 1 + rng.Uniform(6);
  for (uint64_t i = 0; i < ops; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(40));
    const size_t start = batch.ApproximateSize();
    out.length_fields.push_back(start + 1);  // after the tag
    const size_t value_field = start + 1 + VarintLength(key.size()) + key.size();
    switch (rng.Uniform(3)) {
      case 0:
        batch.Put(key, std::string(rng.Uniform(200), 'v'));
        out.length_fields.push_back(value_field);
        break;
      case 1: {
        std::string pointer;
        EncodeValuePointer(&pointer, ValuePointer{1 + rng.Uniform(4), rng.Uniform(4096),
                                                  6 + rng.Uniform(300)});
        batch.PutPointer(key, pointer);
        out.length_fields.push_back(value_field);
        break;
      }
      default:
        batch.Delete(key);
        break;
    }
  }
  out.rep = Rep(batch);
  return out;
}

// Flips one to three bytes of a non-empty `bytes`.
void FlipBytes(std::string* bytes, Rng& rng) {
  for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
    (*bytes)[rng.Uniform(bytes->size())] ^= static_cast<char>(1 + rng.Uniform(255));
  }
}

// Flipped bytes or a truncation of a non-empty `bytes`.
std::string FlipOrTruncate(std::string bytes, Rng& rng) {
  if (rng.Bernoulli(0.5)) {
    bytes.resize(rng.Uniform(bytes.size()));
  } else {
    FlipBytes(&bytes, rng);
  }
  return bytes;
}

std::string Mutate(const Encoded& valid, Rng& rng) {
  std::string rep = valid.rep;
  switch (rng.Uniform(4)) {
    case 0:  // byte flips
      FlipBytes(&rep, rng);
      break;
    case 1:  // truncation
      rep.resize(rng.Uniform(rep.size()));
      break;
    case 2: {  // an inflated length varint
      const size_t at = valid.length_fields[rng.Uniform(valid.length_fields.size())];
      uint32_t length = 0;
      const char* end = GetVarint32Ptr(rep.data() + at, rep.data() + rep.size(), &length);
      const uint32_t inflated =
          rng.Bernoulli(0.5) ? length + 1 + static_cast<uint32_t>(rng.Uniform(64)) : UINT32_MAX;
      std::string field;
      PutVarint32(&field, inflated);
      rep.replace(at, static_cast<size_t>(end - (rep.data() + at)), field);
      break;
    }
    default: {  // a rewritten count
      const uint32_t count = DecodeFixed32(rep.data() + 8);
      const uint32_t choices[] = {count - 1, count + 1, static_cast<uint32_t>(rng.Next())};
      EncodeFixed32(rep.data() + 8, choices[rng.Uniform(3)]);
      break;
    }
  }
  return rep;
}

// Replays `rep` as the one record of a store's WAL.
Status OpenWithWalRecord(const std::string& rep) {
  vfs::MemVfs fs;
  Options options;
  options.vfs = &fs;
  options.value_log_threshold = 64;  // replay checks pointer ops
  std::unique_ptr<DB> db;
  LSMIO_RETURN_IF_ERROR(DB::Open(options, "/db", &db));
  db.reset();
  std::vector<std::string> children;
  LSMIO_RETURN_IF_ERROR(fs.ListDir("/db", &children));
  for (const std::string& child : children) {
    uint64_t number = 0;
    FileType type = FileType::kUnknown;
    if (!ParseFileName(child, &number, &type) || type != FileType::kLogFile) continue;
    std::unique_ptr<vfs::WritableFile> file;
    LSMIO_RETURN_IF_ERROR(fs.NewWritableFile("/db/" + child, {}, &file));
    log::Writer writer(file.get());
    LSMIO_RETURN_IF_ERROR(writer.AddRecord(rep));
    LSMIO_RETURN_IF_ERROR(file->Close());
  }
  return DB::Open(options, "/db", &db);
}

TEST(WriteBatchMutationTest, MutatedBatchesDecodeToOkOrCorruption) {
  InternalKeyComparator icmp(BytewiseComparator());
  Rng rng(2801);
  constexpr int kCases = 300;
  int corrupt = 0;
  for (int i = 0; i < kCases; ++i) {
    const Encoded valid = RandomBatch(rng);
    const std::string rep = Mutate(valid, rng);
    SCOPED_TRACE("case " + std::to_string(i));

    WriteBatch batch;
    const Status set = WriteBatch::SetContents(&batch, rep);
    ASSERT_TRUE(set.ok() || set.IsCorruption()) << set.ToString();
    if (set.ok()) {
      const Status read = ReadOps(batch).status;
      ASSERT_TRUE(read.ok() || read.IsCorruption()) << read.ToString();
      auto* mem = new MemTable(icmp);
      mem->Ref();
      const Status insert = batch.InsertInto(mem);
      mem->Unref();
      EXPECT_EQ(insert.ToString(), read.ToString());
      if (!read.ok()) ++corrupt;
    } else {
      ++corrupt;
    }

    const Status open = OpenWithWalRecord(rep);
    ASSERT_TRUE(open.ok() || open.IsCorruption()) << open.ToString();
  }
  // The mutations must reach the error paths, not only re-encode valid
  // batches.
  EXPECT_GT(corrupt, kCases / 2);
}

// --- the SHARDS marker ---------------------------------------------------------

std::string MutateMarker(const std::string& valid, Rng& rng) {
  if (rng.Bernoulli(0.5)) return FlipOrTruncate(valid, rng);
  const char* counts[] = {"3", "100000", "2147483647", "0", "-2", "2147483648",
                          "99999999999999999999"};
  return "lsmio-shards-v1 " + std::string(counts[rng.Uniform(std::size(counts))]) + "\n";
}

// A mutated marker opens as the store it names or fails with Corruption or
// InvalidArgument, and Destroy removes the store by listing it, whatever
// count the marker claims.
TEST(WriteBatchMutationTest, MutatedShardsMarkersOpenOrFailAndDestroy) {
  Rng rng(2901);
  constexpr int kCases = 100;
  int rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    vfs::MemVfs fs;
    Options options;
    options.vfs = &fs;
    options.num_shards = 2;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    ASSERT_TRUE(db->Put({}, "k", "v").ok());
    db.reset();
    std::string marker;
    ASSERT_TRUE(vfs::ReadFileToString(fs, ShardsMarkerFileName("/db"), &marker).ok());
    ASSERT_TRUE(
        vfs::WriteStringToFile(fs, ShardsMarkerFileName("/db"), MutateMarker(marker, rng)).ok());

    for (const int shards : {1, 2}) {
      options.num_shards = shards;
      const Status open = DB::Open(options, "/db", &db);
      ASSERT_TRUE(open.ok() || open.IsCorruption() || open.IsInvalidArgument())
          << open.ToString();
      if (open.ok()) {
        std::string value;
        ASSERT_TRUE(db->Get({}, "k", &value).ok());
        EXPECT_EQ(value, "v");
        db.reset();
      } else {
        ++rejected;
      }
    }
    ASSERT_TRUE(DB::Destroy(options, "/db").ok());
    std::vector<std::string> left;
    ASSERT_TRUE(fs.ListDir("/db", &left).ok());
    EXPECT_TRUE(left.empty()) << left.front();
  }
  EXPECT_GT(rejected, kCases);
}

// --- value pointers and blob records --------------------------------------------

// Reads every key of `want` through Get, MultiGet and an iterator. Each
// read gives the key's value or a status for which `other` holds.
void ExpectValueOr(DB& db, const std::map<std::string, std::string>& want,
                   bool (Status::*other)() const) {
  std::vector<Slice> keys;
  for (const auto& [key, value] : want) {
    std::string got;
    const Status s = db.Get({}, key, &got);
    if (s.ok()) {
      EXPECT_EQ(got, value) << key;
    } else {
      EXPECT_TRUE((s.*other)()) << key << ": " << s.ToString();
    }
    keys.emplace_back(key);
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  const Status batch = db.MultiGet({}, keys, &values, &statuses);
  EXPECT_TRUE(batch.ok()) << batch.ToString();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (statuses[i].ok()) {
      EXPECT_EQ(values[i], want.at(keys[i].ToString())) << keys[i].ToString();
    } else {
      EXPECT_TRUE((statuses[i].*other)()) << keys[i].ToString() << ": " << statuses[i].ToString();
    }
  }
  std::unique_ptr<Iterator> it(db.NewIterator({}));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const auto found = want.find(it->key().ToString());
    if (found == want.end()) continue;
    const Slice value = it->value();
    if (value != Slice(found->second)) {
      EXPECT_TRUE(it->status().IsCorruption()) << found->first << ": " << it->status().ToString();
    }
  }
}

// A value unique to `key`, long enough to be separated.
std::string BlobValue(const std::string& key) { return key + std::string(100, '.') + key; }

// Mutates an encoded pointer: byte flips, a truncation, or one of its three
// fields inflated.
std::string MutatePointer(const ValuePointer& valid, Rng& rng) {
  std::string encoded;
  EncodeValuePointer(&encoded, valid);
  if (rng.Bernoulli(0.5)) return FlipOrTruncate(encoded, rng);
  ValuePointer ptr = valid;
  uint64_t* fields[] = {&ptr.segment, &ptr.offset, &ptr.length};
  uint64_t* field = fields[rng.Uniform(3)];
  *field = rng.Bernoulli(0.5) ? *field + 1 + rng.Uniform(64) : UINT64_MAX - rng.Uniform(2);
  encoded.clear();
  EncodeValuePointer(&encoded, ptr);
  return encoded;
}

// Blob records are appended straight to a segment, and each key's only
// version is a mutated pointer to its record: every read gives the key's
// value or Corruption, and WAL replay drops each pointer that does not
// resolve.
TEST(WriteBatchMutationTest, MutatedValuePointersReadOwnValueOrCorruption) {
  Rng rng(2902);
  constexpr int kCases = 300;
  vfs::MemVfs fs;
  Options options;
  options.vfs = &fs;
  options.value_log_threshold = 64;
  std::map<std::string, std::string> want;
  std::vector<ValuePointer> pointers;
  {
    ValueLog vlog(options, "/db", &fs);
    ASSERT_TRUE(vlog.Open({}).ok());
    for (int i = 0; i < kCases; ++i) {
      const std::string key = "key" + std::to_string(i);
      want[key] = BlobValue(key);
      ASSERT_TRUE(vlog.Append(key, want[key], /*gc_rewrite=*/false, &pointers.emplace_back()).ok());
    }
    ASSERT_TRUE(vlog.Sync().ok());
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < kCases; ++i) {
    WriteBatch batch;
    batch.PutPointer("key" + std::to_string(i), MutatePointer(pointers[i], rng));
    ASSERT_TRUE(db->Write({}, &batch).ok());
  }
  ExpectValueOr(*db, want, &Status::IsCorruption);

  db.reset();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ExpectValueOr(*db, want, &Status::IsNotFound);
}

// Bytes of a flushed store's blob segment are flipped or truncated: every
// read gives the key's value or Corruption. Keys still in the WAL replay:
// a pointer whose record no longer reads back is dropped.
TEST(WriteBatchMutationTest, MutatedBlobRecordsReadOwnValueOrCorruption) {
  Rng rng(2903);
  constexpr int kCases = 100;
  int corrupt = 0;
  for (int i = 0; i < kCases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    vfs::MemVfs fs;
    Options options;
    options.vfs = &fs;
    options.value_log_threshold = 64;
    std::map<std::string, std::string> flushed;
    std::map<std::string, std::string> logged;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    for (int k = 0; k < 8; ++k) {
      auto& group = k < 4 ? flushed : logged;
      const std::string key = "key" + std::to_string(k);
      group[key] = BlobValue(key);
      ASSERT_TRUE(db->Put({}, key, group[key]).ok());
      if (k == 3) ASSERT_TRUE(db->FlushMemTable(/*wait=*/true).ok());
    }
    db.reset();

    std::vector<std::string> children;
    ASSERT_TRUE(fs.ListDir("/db", &children).ok());
    for (const std::string& child : children) {
      uint64_t number = 0;
      FileType type = FileType::kUnknown;
      if (!ParseFileName(child, &number, &type) || type != FileType::kBlobFile) continue;
      std::string segment;
      ASSERT_TRUE(vfs::ReadFileToString(fs, "/db/" + child, &segment).ok());
      ASSERT_TRUE(vfs::WriteStringToFile(fs, "/db/" + child, FlipOrTruncate(segment, rng)).ok());
    }

    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    ExpectValueOr(*db, flushed, &Status::IsCorruption);
    ExpectValueOr(*db, logged, &Status::IsNotFound);
    std::string value;
    for (const auto& [key, unused] : flushed) {
      if (db->Get({}, key, &value).IsCorruption()) ++corrupt;
    }
  }
  // The mutations must reach the error paths.
  EXPECT_GT(corrupt, kCases / 2);
}

}  // namespace
}  // namespace lsmio::lsm
