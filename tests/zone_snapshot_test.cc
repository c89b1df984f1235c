// Tests for the immutable arena-backed zone snapshot layer: lookup parity
// with zone::Zone::Lookup as the oracle, structural sharing and the merge
// rules of Apply, the pinned snapshot and diff wire bytes, DiffSnapshots
// against its definition, the zero-copy MessageView wire path, and
// concurrent reads of one shared snapshot.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/dnssec.h"
#include "crypto/sha256.h"
#include "dns/message.h"
#include "util/base64.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/snapshot.h"
#include "zone/zone_diff.h"
#include "zone/zone_snapshot.h"

namespace rootless::zone {
namespace {

using dns::Name;
using dns::RRset;
using dns::RRsetKey;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

// SHA-256 of the wire formats rsync deltas (§5.2) and the diff channel
// (§5.3) depend on: SerializeSnapshot of the 2019-06-07 model zone, and
// SerializeDiff(DiffSnapshots(...)) from 2018-04-11 to 2018-04-12.
constexpr std::string_view kSnapshotWireSha256 =
    "347c7b01fe2273f12698582f4a03ed88fd7db419367ef6b3484e4a110b9551c0";
constexpr std::string_view kDiffWireSha256 =
    "3f4b3920549601312fcdc04be63d5ca0ca2a7ea6f5a0225b8d424933cc504ae0";
// SHA-256 of SerializeSnapshot of SignZone's output: the 2019-06-07 model
// zone signed with SigningKeyFrom(7), and that signed zone re-signed with
// SigningKeyFrom(8) (a second DNSKEY and a second RRSIG per RRset merged
// into the existing sets), both over kWindow.
constexpr std::string_view kSignedSnapshotWireSha256 =
    "e0fdda5eaced003b748dbc74e32f920544d2d4d83681224a161c25adce9f3fba";
constexpr std::string_view kResignedSnapshotWireSha256 =
    "38c694de25ebfd5cbd2494c170a537df649f4274db1e8788cc042859b336d3c7";
constexpr SigningWindow kWindow{0, 2'000'000'000};

std::string Sha256Hex(std::span<const std::uint8_t> bytes) {
  const crypto::Digest256 digest = crypto::Sha256::Hash(bytes);
  return util::HexEncode(digest);
}

SnapshotPtr ModelSnapshot(const RootZoneModel& model,
                          const util::CivilDate& date) {
  return ZoneSnapshot::Build(model.Snapshot(date));
}

bool SameSection(const std::vector<dns::RRsetView>& got,
                 const std::vector<RRset>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                    [](const dns::RRsetView& g, const RRset& w) {
                      return g.Materialize() == w;
                    });
}

// Compares both sides of a lookup section by section (materializing the
// snapshot's views only to report a mismatch).
void ExpectLookupParity(const Zone& zone, const ZoneSnapshot& snapshot,
                        const Name& qname, RRType qtype,
                        bool include_dnssec = false) {
  const LookupResult want = zone.Lookup(qname, qtype, include_dnssec);
  const LookupView view = snapshot.Lookup(qname, qtype, include_dnssec);
  if (view.disposition == want.disposition &&
      SameSection(view.answers, want.answers) &&
      SameSection(view.authority, want.authority) &&
      SameSection(view.additional, want.additional)) {
    return;
  }
  const LookupResult got = view.Materialize();
  SCOPED_TRACE(qname.ToString() + " " + dns::RRTypeToString(qtype) +
               (include_dnssec ? " +dnssec" : ""));
  EXPECT_EQ(got.disposition, want.disposition);
  EXPECT_EQ(got.answers, want.answers);
  EXPECT_EQ(got.authority, want.authority);
  EXPECT_EQ(got.additional, want.additional);
}

crypto::SigningKey SigningKeyFrom(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::GenerateKey(crypto::kZskFlags, rng);
}

// The model root zone of `date`, signed with a fixed key.
Zone SignedModelZone(const RootZoneModel& model, const util::CivilDate& date) {
  return SignZone(model.Snapshot(date), SigningKeyFrom(7), kWindow);
}

// Every owner name of `zone` with the types it owns.
std::map<Name, std::vector<RRType>> OwnersOf(const Zone& zone) {
  std::map<Name, std::vector<RRType>> owners;
  for (const auto& [key, set] : zone.rrset_map()) {
    owners[key.name].push_back(key.type);
  }
  return owners;
}

// `name` with each letter's case flipped by a coin toss (DNS 0x20).
Name RandomCase(const Name& name, util::Rng& rng) {
  std::string text = name.ToString();
  for (char& c : text) {
    if (std::isalpha(static_cast<unsigned char>(c)) && rng.Chance(0.5)) {
      c = static_cast<char>(c ^ 0x20);
    }
  }
  return N(text);
}

// Differential lookup sweep with Zone::Lookup as the oracle: every owner of
// `zone` and of `also_owners_of` × {the types it owns, A, NS, DS, CNAME, TXT}
// × DNSSEC off/on, each name spelled as stored and in random 0x20 case. Then
// the same for names that own nothing: before the first TLD, right after
// each TLD's subtree (between owners), after the last owner, below every
// cut, and under every glue-only owner (addresses, but no NS; the signed
// model zone also gives those their NSEC and RRSIG).
void ExpectLookupSweep(const Zone& zone, const ZoneSnapshot& snapshot,
                       const Zone* also_owners_of = nullptr) {
  std::map<Name, std::vector<RRType>> owners = OwnersOf(zone);
  if (also_owners_of != nullptr) {
    for (const auto& [name, types] : OwnersOf(*also_owners_of)) {
      auto& all = owners[name];
      all.insert(all.end(), types.begin(), types.end());
    }
  }
  util::Rng rng(0x20);
  const auto sweep = [&](const Name& name, std::vector<RRType> types) {
    types.insert(types.end(), {RRType::kA, RRType::kNS, RRType::kDS,
                               RRType::kCNAME, RRType::kTXT});
    std::sort(types.begin(), types.end());
    types.erase(std::unique(types.begin(), types.end()), types.end());
    for (const Name& spelling : {name, RandomCase(name, rng)}) {
      for (const RRType type : types) {
        ExpectLookupParity(zone, snapshot, spelling, type, false);
        ExpectLookupParity(zone, snapshot, spelling, type, true);
      }
    }
  };

  std::vector<Name> absent = {N("0."), N("-first."), N("zzzzzzzzzzzz."),
                              N("a.zzzzzzzzzzzz.")};
  std::size_t cuts = 0, glue_only = 0;
  for (const auto& [name, types] : owners) {
    sweep(name, types);
    if (name.is_root()) continue;
    const std::string text = name.ToString();
    if (std::find(types.begin(), types.end(), RRType::kNS) != types.end()) {
      ++cuts;
      absent.push_back(N("www." + text));
      absent.push_back(N("a.b." + text));
    }
    const auto is_address = [](RRType t) {
      return t == RRType::kA || t == RRType::kAAAA;
    };
    if (std::any_of(types.begin(), types.end(), is_address) &&
        std::all_of(types.begin(), types.end(), [&](RRType t) {
          return is_address(t) || t == RRType::kNSEC || t == RRType::kRRSIG;
        })) {
      ++glue_only;
      absent.push_back(N("x." + text));
    }
    if (name.label_count() == 1) {
      absent.push_back(N(std::string(name.label(0)) + "0."));
    }
  }
  ASSERT_GT(cuts, 1000u);
  ASSERT_GT(glue_only, 100u);
  for (const Name& name : absent) sweep(name, {});
}

TEST(ZoneSnapshot, BuildPreservesContent) {
  const RootZoneModel model;
  const Zone master = model.Snapshot({2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(master);

  EXPECT_EQ(snapshot->apex(), master.apex());
  EXPECT_EQ(snapshot->Serial(), master.Serial());
  EXPECT_EQ(snapshot->rrset_count(), master.rrset_count());
  EXPECT_EQ(snapshot->record_count(), master.record_count());
  EXPECT_EQ(snapshot->page_count(), 1u);
  EXPECT_TRUE(snapshot->SameContent(*snapshot));

  // Same RRsets, same canonical order; and iteration matches AllRRsets.
  EXPECT_EQ(snapshot->AllRRsets(), master.AllRRsets());
  std::vector<RRset> visited;
  snapshot->ForEachRRset(
      [&](const dns::RRsetView& v) { visited.push_back(v.Materialize()); });
  EXPECT_EQ(visited, snapshot->AllRRsets());
}

TEST(ZoneSnapshot, LookupParityPlain) {
  const RootZoneModel model;
  const Zone master = model.Snapshot({2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(master);

  // Apex answers, referrals (with glue), NODATA, NXDOMAIN, out-of-zone.
  ExpectLookupParity(master, *snapshot, N("."), RRType::kSOA);
  ExpectLookupParity(master, *snapshot, N("."), RRType::kNS);
  ExpectLookupParity(master, *snapshot, N("."), RRType::kTXT);
  ExpectLookupParity(master, *snapshot, N("com."), RRType::kNS);
  ExpectLookupParity(master, *snapshot, N("com."), RRType::kDS);
  ExpectLookupParity(master, *snapshot, N("com."), RRType::kA);
  ExpectLookupParity(master, *snapshot, N("www.example.com."), RRType::kA);
  ExpectLookupParity(master, *snapshot, N("no-such-tld-xyzzy."), RRType::kA);
  ExpectLookupParity(master, *snapshot, N("a.b.no-such-tld-xyzzy."),
                     RRType::kAAAA);

  // Every delegated child, both NS (referral/answer path) and A.
  for (const Name& child : master.DelegatedChildren()) {
    ExpectLookupParity(master, *snapshot, child, RRType::kNS);
    ExpectLookupParity(master, *snapshot, child, RRType::kA);
  }
  EXPECT_EQ(snapshot->DelegatedChildren(), master.DelegatedChildren());
}

TEST(ZoneSnapshot, LookupParitySigned) {
  const RootZoneModel model;
  util::Rng rng(7);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  const Zone signed_zone =
      SignZone(model.Snapshot({2019, 6, 7}), zsk, {0, 2'000'000'000});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(signed_zone);

  for (const bool dnssec : {false, true}) {
    SCOPED_TRACE(dnssec ? "dnssec" : "plain");
    ExpectLookupParity(signed_zone, *snapshot, N("."), RRType::kSOA, dnssec);
    ExpectLookupParity(signed_zone, *snapshot, N("."), RRType::kDNSKEY,
                       dnssec);
    ExpectLookupParity(signed_zone, *snapshot, N("com."), RRType::kNS,
                       dnssec);
    ExpectLookupParity(signed_zone, *snapshot, N("com."), RRType::kDS,
                       dnssec);
    // NXDOMAIN must carry the covering NSEC (+RRSIG) when dnssec is on.
    ExpectLookupParity(signed_zone, *snapshot, N("no-such-tld-xyzzy."),
                       RRType::kA, dnssec);
    ExpectLookupParity(signed_zone, *snapshot, N("zzz-not-there."),
                       RRType::kNS, dnssec);
  }
}

TEST(ZoneSnapshot, LookupSweepMatchesZone) {
  const RootZoneModel model;
  const Zone signed_zone = SignedModelZone(model, {2018, 4, 11});
  ExpectLookupSweep(signed_zone, *ZoneSnapshot::Build(signed_zone));
}

// Apply must leave an owner index describing the merged index, not the
// base's: the sweep runs against the next day's zone (and over the owners
// the diff removed), so a stale index answers from the wrong run. The day
// pair is the first after the DITL day whose diff adds and removes RRsets
// (a rotating-NS TLD renames its glue hosts), which shifts owner runs.
TEST(ZoneSnapshot, LookupSweepMatchesZoneAfterApply) {
  const RootZoneModel model;
  const Zone today = SignedModelZone(model, {2018, 4, 21});
  const Zone tomorrow = SignedModelZone(model, {2018, 4, 22});
  const SnapshotPtr base = ZoneSnapshot::Build(today);
  const ZoneDiff diff = DiffSnapshots(*base, *ZoneSnapshot::Build(tomorrow));
  ASSERT_FALSE(diff.added.empty());
  ASSERT_FALSE(diff.removed.empty());
  auto applied = ZoneSnapshot::Apply(base, diff);
  ASSERT_TRUE(applied.ok());
  ExpectLookupSweep(tomorrow, **applied, &today);
}

// Frontend workers and replay shards read one snapshot from several threads.
// The owner index (and the Name hash cache in the arena) must be read-only
// after Build: four threads answering the same queries must each produce
// exactly the wires of a single-threaded pass over another snapshot.
TEST(ZoneSnapshot, ConcurrentLookupsMatchSingleThreaded) {
  const RootZoneModel model;
  const Zone signed_zone = SignedModelZone(model, {2018, 4, 11});

  std::vector<dns::Question> questions;
  util::Rng rng(4);
  for (const Name& child : signed_zone.DelegatedChildren()) {
    const std::string tld = child.ToString();
    questions.push_back({N("www." + tld), RRType::kA, dns::RRClass::kIN});
    questions.push_back({RandomCase(child, rng), RRType::kDS,
                         dns::RRClass::kIN});
    questions.push_back({N("no-such-" + tld.substr(0, tld.size() - 1) + "."),
                         RRType::kAAAA, dns::RRClass::kIN});
  }
  questions.push_back({N("."), RRType::kDNSKEY, dns::RRClass::kIN});

  const auto answer_all = [&](const ZoneSnapshot& snapshot) {
    std::vector<util::Bytes> wires;
    LookupView lookup;
    dns::MessageView response;
    for (std::size_t i = 0; i < questions.size(); ++i) {
      const dns::Question& q = questions[i];
      snapshot.Lookup(q.name, q.type, /*include_dnssec=*/true, lookup);
      response.clear();
      response.header.id = static_cast<std::uint16_t>(i);
      response.header.qr = true;
      response.questions.push_back(q);
      response.answers = lookup.answers;
      response.authority = lookup.authority;
      response.additional = lookup.additional;
      wires.push_back(dns::EncodeMessage(response, i % 2 == 0 ? 512 : 1232));
    }
    return wires;
  };

  const std::vector<util::Bytes> want =
      answer_all(*ZoneSnapshot::Build(signed_zone));
  const SnapshotPtr shared = ZoneSnapshot::Build(signed_zone);
  constexpr int kThreads = 4;
  std::vector<std::vector<util::Bytes>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = answer_all(*shared); });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(got[t] == want) << "thread " << t;
  }
}

TEST(ZoneSnapshot, ApplyMatchesRebuildAndSharesPages) {
  const RootZoneModel model;
  const SnapshotPtr base = ModelSnapshot(model, {2018, 4, 11});
  const SnapshotPtr rebuilt = ModelSnapshot(model, {2018, 4, 12});
  const ZoneDiff diff = DiffSnapshots(*base, *rebuilt);
  ASSERT_FALSE(diff.empty());

  auto applied = ZoneSnapshot::Apply(base, diff);
  ASSERT_TRUE(applied.ok());

  // Content identical to building the new day's snapshot from scratch.
  EXPECT_TRUE((*applied)->SameContent(*rebuilt));
  EXPECT_EQ((*applied)->Serial(), rebuilt->Serial());

  // Structural sharing: one new delta page, every base page shared, and the
  // delta page holds exactly the added+changed RRsets.
  EXPECT_EQ((*applied)->page_count(), base->page_count() + 1);
  EXPECT_EQ((*applied)->SharedPageCount(*base), base->page_count());
  EXPECT_EQ((*applied)->newest_page_rrset_count(),
            diff.added.size() + diff.changed.size());

  // Chained Apply keeps sharing the original page.
  const SnapshotPtr day3 = ModelSnapshot(model, {2018, 4, 13});
  auto applied2 =
      ZoneSnapshot::Apply(*applied, DiffSnapshots(*rebuilt, *day3));
  ASSERT_TRUE(applied2.ok());
  EXPECT_TRUE((*applied2)->SameContent(*day3));
  EXPECT_EQ((*applied2)->SharedPageCount(*base), base->page_count());
}

TEST(ZoneSnapshot, ApplyLeavesUnchangedViewsAliasingBaseArena) {
  const RootZoneModel model;
  const SnapshotPtr base = ModelSnapshot(model, {2018, 4, 11});
  const ZoneDiff diff =
      DiffSnapshots(*base, *ModelSnapshot(model, {2018, 4, 12}));

  // Pick an RRset untouched by the diff.
  std::set<std::string> touched;
  for (const auto& s : diff.added) touched.insert(s.name.ToString());
  for (const auto& k : diff.removed) touched.insert(k.name.ToString());
  for (const auto& s : diff.changed) touched.insert(s.name.ToString());
  Name untouched = N(".");
  bool found = false;
  for (const Name& child : base->DelegatedChildren()) {
    if (!touched.count(child.ToString())) {
      untouched = child;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  auto applied = ZoneSnapshot::Apply(base, diff);
  ASSERT_TRUE(applied.ok());

  const auto before = base->Find(untouched, RRType::kNS);
  const auto after = (*applied)->Find(untouched, RRType::kNS);
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(after.has_value());
  // Zero-copy: the derived snapshot serves the very same arena memory.
  EXPECT_EQ(after->rdatas.stored().data(), before->rdatas.stored().data());
  EXPECT_EQ(after->name, before->name);
}

TEST(ZoneSnapshot, ApplyRejectsBadDiff) {
  const RootZoneModel model;
  const SnapshotPtr base = ModelSnapshot(model, {2019, 6, 7});

  ZoneDiff bad;
  bad.removed.push_back(
      {N("definitely-not-present."), RRType::kNS, dns::RRClass::kIN});
  EXPECT_FALSE(ZoneSnapshot::Apply(base, bad).ok());

  ZoneDiff bad_change;
  RRset ghost;
  ghost.name = N("definitely-not-present.");
  ghost.type = RRType::kNS;
  ghost.rdatas.push_back(dns::NsData{N("ns.example.")});
  bad_change.changed.push_back(ghost);
  EXPECT_FALSE(ZoneSnapshot::Apply(base, bad_change).ok());

  // A key the same diff already removed is gone for the later lists.
  const auto com_ns = base->Find(N("com."), RRType::kNS);
  ASSERT_TRUE(com_ns.has_value());
  ZoneDiff removed_then_changed;
  removed_then_changed.removed.push_back(com_ns->Materialize().key());
  removed_then_changed.changed.push_back(com_ns->Materialize());
  EXPECT_FALSE(ZoneSnapshot::Apply(base, removed_then_changed).ok());
}

// An added RRset whose key the snapshot already holds merges into it, as
// Zone::AddRRset does: the TTL becomes the smaller of the two, and the
// rdatas it lacks are appended in the diff's order.
TEST(ZoneSnapshot, ApplyMergesAddedRRsetIntoExistingKey) {
  Zone zone;
  dns::SoaData soa;
  soa.serial = 7;
  ASSERT_TRUE(zone.AddRecord({Name(), RRType::kSOA, dns::RRClass::kIN,
                              86400, soa}).ok());
  for (const char* host : {"a.gtld.", "b.gtld."}) {
    ASSERT_TRUE(zone.AddRecord({N("com."), RRType::kNS, dns::RRClass::kIN,
                                172800, dns::NsData{N(host)}}).ok());
  }
  const SnapshotPtr base = ZoneSnapshot::Build(zone);

  RRset extra;
  extra.name = N("com.");
  extra.type = RRType::kNS;
  extra.ttl = 3600;
  extra.rdatas = {dns::NsData{N("c.gtld.")}, dns::NsData{N("b.gtld.")},
                  dns::NsData{N("d.gtld.")}};
  ZoneDiff lower;
  lower.added.push_back(extra);
  auto merged = ZoneSnapshot::Apply(base, lower);
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  const auto ns = (*merged)->Find(N("com."), RRType::kNS);
  ASSERT_TRUE(ns.has_value());
  EXPECT_EQ(ns->ttl, 3600u);
  const std::vector<dns::Rdata> want = {
      dns::NsData{N("a.gtld.")}, dns::NsData{N("b.gtld.")},
      dns::NsData{N("c.gtld.")}, dns::NsData{N("d.gtld.")}};
  EXPECT_EQ(ns->Materialize().rdatas, want);
  EXPECT_EQ((*merged)->rrset_count(), base->rrset_count());
  EXPECT_EQ((*merged)->record_count(), base->record_count() + 2);
  // The base snapshot is untouched.
  EXPECT_EQ(base->Find(N("com."), RRType::kNS)->rdatas.size(), 2u);

  // A larger TTL leaves the existing one in place.
  extra.ttl = 999999;
  ZoneDiff higher;
  higher.added.push_back(extra);
  auto kept = ZoneSnapshot::Apply(base, higher);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ((*kept)->Find(N("com."), RRType::kNS)->ttl, 172800u);
}

// The snapshot wire round-trips and its bytes are pinned.
TEST(ZoneSnapshot, SerializationParityWithZone) {
  const RootZoneModel model;
  const Zone master = model.Snapshot({2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(master);

  const util::Bytes wire = SerializeSnapshot(*snapshot);
  EXPECT_EQ(Sha256Hex(wire), kSnapshotWireSha256);

  auto restored = DeserializeSnapshot(wire);
  ASSERT_TRUE(restored.ok()) << restored.error().message();
  EXPECT_TRUE((*restored)->SameContent(*snapshot));
  EXPECT_EQ((*restored)->Serial(), master.Serial());
  EXPECT_EQ(SerializeSnapshot(**restored), wire);
}

// SignZone's output bytes are pinned, signing is a fixed point for the same
// key, and a second key's DNSKEY and RRSIGs merge into the existing sets.
TEST(ZoneSnapshot, SignedSnapshotWireIsPinned) {
  const RootZoneModel model;
  const Zone signed_zone = SignedModelZone(model, {2019, 6, 7});
  const util::Bytes wire =
      SerializeSnapshot(*ZoneSnapshot::Build(signed_zone));
  EXPECT_EQ(Sha256Hex(wire), kSignedSnapshotWireSha256);

  const Zone resigned_same = SignZone(signed_zone, SigningKeyFrom(7), kWindow);
  EXPECT_EQ(SerializeSnapshot(*ZoneSnapshot::Build(resigned_same)), wire);

  const Zone resigned = SignZone(signed_zone, SigningKeyFrom(8), kWindow);
  EXPECT_EQ(Sha256Hex(SerializeSnapshot(*ZoneSnapshot::Build(resigned))),
            kResignedSnapshotWireSha256);
  EXPECT_EQ(resigned.Find(Name(), RRType::kDNSKEY)->size(), 2u);
}

// One piece of a zone handed to the builder: a whole RRset (AddRRset) or a
// single record (AddRecord), tagged with the RRset it came from.
struct Piece {
  RRset set;
  bool as_record = false;
  std::size_t source = 0;  // index of the RRset it came from
};

// Cuts `zone` into pieces in canonical order. Every other RRset is added
// whole; the rest record by record, with every record after the first at a
// higher TTL (so the set's TTL comes from the min rule) and the first
// record repeated at the end (so the duplicate rule drops it).
std::vector<Piece> CutIntoPieces(const Zone& zone) {
  std::vector<Piece> pieces;
  std::size_t source = 0;
  for (const auto& [key, set] : zone.rrset_map()) {
    if (source % 2 == 0 || set.size() == 1) {
      pieces.push_back({set, false, source});
    } else {
      for (std::size_t i = 0; i <= set.size(); ++i) {
        RRset one = set;
        one.rdatas = {set.rdatas[i % set.size()]};
        if (i > 0) one.ttl = set.ttl + 1;
        pieces.push_back({std::move(one), true, source});
      }
    }
    ++source;
  }
  return pieces;
}

util::Status AddPiece(Zone& zone, const Piece& piece) {
  return piece.as_record ? zone.AddRecord(piece.set.ToRecords().front())
                         : zone.AddRRset(piece.set);
}

// Adds `pieces` in the given order to a zone at `apex`; every piece whose
// owner is outside the apex must fail and leave the zone unchanged.
Zone BuildFromPieces(const std::vector<Piece>& pieces,
                     const std::vector<std::size_t>& order,
                     const Name& apex) {
  Zone zone(apex);
  for (const std::size_t i : order) {
    const Piece& piece = pieces[i];
    const std::size_t before = zone.rrset_count();
    const util::Status added = AddPiece(zone, piece);
    EXPECT_EQ(added.ok(), piece.set.name.IsSubdomainOf(apex))
        << piece.set.name.ToString();
    if (!added.ok()) {
      EXPECT_EQ(zone.rrset_count(), before);
    }
  }
  return zone;
}

// `built` holds exactly `want`'s RRsets at the same TTLs. Rdata order must
// match where every piece of the RRset arrived in its original relative
// order; elsewhere the rdatas must match as a set.
void ExpectSameRRsets(const Zone& built, const std::vector<RRset>& want,
                      const std::vector<bool>& kept_order) {
  ASSERT_EQ(built.rrset_count(), want.size());
  std::size_t i = 0;
  for (const auto& [key, set] : built.rrset_map()) {
    const RRset& expected = want[i];
    SCOPED_TRACE(expected.name.ToString() + " " +
                 dns::RRTypeToString(expected.type));
    EXPECT_EQ(key, expected.key());
    EXPECT_EQ(set.key(), expected.key());
    EXPECT_EQ(set.ttl, expected.ttl);
    if (kept_order[i]) {
      EXPECT_EQ(set.rdatas, expected.rdatas);
    } else {
      ASSERT_EQ(set.size(), expected.size());
      for (const auto& rd : expected.rdatas) {
        EXPECT_NE(std::find(set.rdatas.begin(), set.rdatas.end(), rd),
                  set.rdatas.end());
      }
    }
    ++i;
  }
}

// The builder's content does not depend on arrival order: pieces of the
// signed model zone in canonical, reversed and shuffled order all give the
// same RRsets, a zone cut at "net." rejects every other owner in each
// order, and re-adding the last record changes nothing.
TEST(ZoneSnapshot, BuilderContentIsIndependentOfArrivalOrder) {
  const RootZoneModel model;
  const Zone signed_zone = SignedModelZone(model, {2019, 6, 7});
  const std::vector<Piece> pieces = CutIntoPieces(signed_zone);
  const std::vector<RRset> all = signed_zone.AllRRsets();
  const Name net = N("net.");
  std::vector<RRset> under_net;
  std::vector<std::size_t> under_net_source;
  for (std::size_t s = 0; s < all.size(); ++s) {
    if (!all[s].name.IsSubdomainOf(net)) continue;
    under_net.push_back(all[s]);
    under_net_source.push_back(s);
  }
  ASSERT_GT(under_net.size(), 10u);
  ASSERT_LT(under_net.size(), all.size());

  std::vector<std::size_t> canonical(pieces.size());
  for (std::size_t i = 0; i < canonical.size(); ++i) canonical[i] = i;
  std::vector<std::size_t> reversed(canonical.rbegin(), canonical.rend());
  std::vector<std::size_t> shuffled = canonical;
  util::Rng rng(0xB111D);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }

  for (const auto& [label, order] :
       {std::pair{"canonical", canonical}, std::pair{"reversed", reversed},
        std::pair{"shuffled", shuffled}}) {
    SCOPED_TRACE(label);
    // An RRset keeps its rdata order when its pieces arrive in cut order.
    std::vector<bool> kept_order(all.size(), true);
    std::vector<std::size_t> last_seen(all.size(), 0);
    std::vector<bool> seen(all.size(), false);
    for (const std::size_t i : order) {
      const std::size_t s = pieces[i].source;
      if (seen[s] && last_seen[s] > i) kept_order[s] = false;
      seen[s] = true;
      last_seen[s] = i;
    }

    Zone built = BuildFromPieces(pieces, order, Name());
    ExpectSameRRsets(built, all, kept_order);

    const auto tail = std::prev(built.rrset_map().end());
    const RRset tail_before = tail->second;
    ASSERT_TRUE(built.AddRecord(tail_before.ToRecords().back()).ok());
    EXPECT_EQ(built.rrset_count(), all.size());
    EXPECT_EQ(tail->second, tail_before);

    std::vector<bool> net_kept(under_net.size());
    for (std::size_t j = 0; j < under_net.size(); ++j) {
      net_kept[j] = kept_order[under_net_source[j]];
    }
    ExpectSameRRsets(BuildFromPieces(pieces, order, net), under_net,
                     net_kept);
  }
}

// Every RRset of `snapshot`, by key.
std::map<RRsetKey, RRset> ByKey(const ZoneSnapshot& snapshot) {
  std::map<RRsetKey, RRset> out;
  for (RRset& set : snapshot.AllRRsets()) {
    const RRsetKey key = set.key();
    out.emplace(key, std::move(set));
  }
  return out;
}

template <typename T, typename KeyOf>
bool StrictlyCanonical(const std::vector<T>& list, KeyOf key_of) {
  return std::adjacent_find(list.begin(), list.end(),
                            [&](const T& a, const T& b) {
                              return !(key_of(a) < key_of(b));
                            }) == list.end();
}

// Checks `diff` against the definition of new - old, key by key, and that
// applying it to `old_snapshot` gives `new_snapshot`'s content.
void ExpectDiffMeetsDefinition(const SnapshotPtr& old_snapshot,
                               const SnapshotPtr& new_snapshot,
                               const ZoneDiff& diff) {
  const auto old_sets = ByKey(*old_snapshot);
  const auto new_sets = ByKey(*new_snapshot);
  std::set<RRsetKey> listed;
  for (const RRset& set : diff.added) {
    SCOPED_TRACE("added " + set.name.ToString());
    EXPECT_EQ(old_sets.count(set.key()), 0u);
    const auto now = new_sets.find(set.key());
    ASSERT_NE(now, new_sets.end());
    EXPECT_EQ(set, now->second);
    EXPECT_TRUE(listed.insert(set.key()).second);
  }
  for (const RRsetKey& key : diff.removed) {
    SCOPED_TRACE("removed " + key.name.ToString());
    EXPECT_EQ(old_sets.count(key), 1u);
    EXPECT_EQ(new_sets.count(key), 0u);
    EXPECT_TRUE(listed.insert(key).second);
  }
  for (const RRset& set : diff.changed) {
    SCOPED_TRACE("changed " + set.name.ToString());
    const auto was = old_sets.find(set.key());
    const auto now = new_sets.find(set.key());
    ASSERT_NE(was, old_sets.end());
    ASSERT_NE(now, new_sets.end());
    EXPECT_FALSE(was->second == now->second);
    EXPECT_EQ(set, now->second);
    EXPECT_TRUE(listed.insert(set.key()).second);
  }

  // No differing key is missed: the lists name exactly these.
  std::set<RRsetKey> differing;
  for (const auto& [key, set] : new_sets) {
    const auto was = old_sets.find(key);
    if (was == old_sets.end() || !(was->second == set)) differing.insert(key);
  }
  for (const auto& [key, set] : old_sets) {
    if (new_sets.count(key) == 0) differing.insert(key);
  }
  EXPECT_EQ(listed, differing);

  const auto set_key = [](const RRset& s) { return s.key(); };
  EXPECT_TRUE(StrictlyCanonical(diff.added, set_key));
  EXPECT_TRUE(StrictlyCanonical(diff.removed,
                                [](const RRsetKey& k) { return k; }));
  EXPECT_TRUE(StrictlyCanonical(diff.changed, set_key));

  auto applied = ZoneSnapshot::Apply(old_snapshot, diff);
  ASSERT_TRUE(applied.ok()) << applied.error().message();
  EXPECT_TRUE((*applied)->SameContent(*new_snapshot));
}

TEST(ZoneSnapshot, DiffSnapshotsMeetsDefinition) {
  const RootZoneModel model;
  const SnapshotPtr today = ModelSnapshot(model, {2018, 4, 11});
  const SnapshotPtr tomorrow = ModelSnapshot(model, {2018, 4, 12});
  const ZoneDiff diff = DiffSnapshots(*today, *tomorrow);
  ASSERT_FALSE(diff.changed.empty());
  ExpectDiffMeetsDefinition(today, tomorrow, diff);
  EXPECT_EQ(Sha256Hex(SerializeDiff(diff)), kDiffWireSha256);

  // A signed day pair whose diff adds and removes RRsets (a rotating-NS TLD
  // renames its glue hosts) as well as changing them.
  const SnapshotPtr signed_today =
      ZoneSnapshot::Build(SignedModelZone(model, {2018, 4, 21}));
  const SnapshotPtr signed_tomorrow =
      ZoneSnapshot::Build(SignedModelZone(model, {2018, 4, 22}));
  const ZoneDiff churn = DiffSnapshots(*signed_today, *signed_tomorrow);
  ASSERT_FALSE(churn.added.empty());
  ASSERT_FALSE(churn.removed.empty());
  ASSERT_FALSE(churn.changed.empty());
  ExpectDiffMeetsDefinition(signed_today, signed_tomorrow, churn);

  EXPECT_TRUE(DiffSnapshots(*today, *today).empty());
  // Across an Apply chain the page structure differs but the content does
  // not.
  auto applied = ZoneSnapshot::Apply(today, diff);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(DiffSnapshots(*tomorrow, **applied).empty());
}

// A small signed-looking zone whose NS targets and RRSIG signer are spelled
// in upper case (`upper`) or lower case, with the DS digest's last byte
// replaced by `digest_last`.
Zone CaseZone(bool upper, std::uint8_t digest_last = 0x5A) {
  const auto spell = [upper](std::string text) {
    if (upper) {
      for (char& c : text) c = static_cast<char>(std::toupper(c));
    }
    return N(text);
  };
  Zone zone;
  const auto add = [&zone](const char* owner, RRType type,
                           std::vector<dns::Rdata> rdatas) {
    ASSERT_TRUE(zone.AddRRset(RRset{N(owner), type, dns::RRClass::kIN, 86400,
                                    std::move(rdatas)})
                    .ok());
  };
  add(".", RRType::kSOA,
      {dns::SoaData{N("a.root-servers.net."), N("nstld.verisign-grs.com."),
                    2018041100, 1800, 900, 604800, 86400}});
  add(".", RRType::kNS, {dns::NsData{spell("a.root-servers.net.")}});
  add("com.", RRType::kNS,
      {dns::NsData{spell("a.gtld-servers.net.")},
       dns::NsData{spell("b.gtld-servers.net.")}});
  add("com.", RRType::kDS,
      {dns::DsData{30909, 8, 2, {0x12, 0x34, 0x56, digest_last}}});
  dns::RrsigData sig;
  sig.type_covered = RRType::kDS;
  sig.algorithm = 8;
  sig.labels = 1;
  sig.original_ttl = 86400;
  sig.expiration = 1'600'000'000;
  sig.inception = 1'500'000'000;
  sig.key_tag = 39570;
  sig.signer = spell(".");
  sig.signature = {1, 2, 3, 4, 5, 6, 7, 8};
  dns::RrsigData ns_sig = sig;
  ns_sig.type_covered = RRType::kNS;
  ns_sig.signer = spell("a.root-servers.net.");
  add("com.", RRType::kRRSIG, {sig, ns_sig});
  add("a.root-servers.net.", RRType::kA,
      {dns::AData{*dns::Ipv4::Parse("198.41.0.4")}});
  return zone;
}

// Names inside rdata compare case-insensitively in every content
// comparison (SameContent, DiffSnapshots, Apply's merge), however the
// snapshot stores them; any other byte of rdata counts.
TEST(ZoneSnapshot, RdataEqualityIsTyped) {
  const SnapshotPtr lower = ZoneSnapshot::Build(CaseZone(false));
  const SnapshotPtr upper = ZoneSnapshot::Build(CaseZone(true));
  EXPECT_TRUE(lower->SameContent(*upper));
  EXPECT_TRUE(upper->SameContent(*lower));
  EXPECT_TRUE(DiffSnapshots(*lower, *upper).empty());
  EXPECT_TRUE(DiffSnapshots(*upper, *lower).empty());

  // Adding the NS RRset spelled the other way merges into the same rdatas.
  ZoneDiff respelled;
  respelled.added.push_back(
      upper->Find(N("com."), RRType::kNS)->Materialize());
  auto merged = ZoneSnapshot::Apply(lower, respelled);
  ASSERT_TRUE(merged.ok()) << merged.error().message();
  EXPECT_EQ((*merged)->Find(N("com."), RRType::kNS)->size(), 2u);
  EXPECT_EQ((*merged)->record_count(), lower->record_count());
  EXPECT_TRUE((*merged)->SameContent(*lower));

  // One byte of a DS digest is a change in all three.
  const SnapshotPtr tweaked = ZoneSnapshot::Build(CaseZone(false, 0x5B));
  EXPECT_FALSE(lower->SameContent(*tweaked));
  const ZoneDiff diff = DiffSnapshots(*lower, *tweaked);
  ASSERT_EQ(diff.changed.size(), 1u);
  EXPECT_EQ(diff.changed[0].type, RRType::kDS);
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.removed.empty());
  ZoneDiff add_ds;
  add_ds.added.push_back(diff.changed[0]);
  auto grown = ZoneSnapshot::Apply(lower, add_ds);
  ASSERT_TRUE(grown.ok()) << grown.error().message();
  EXPECT_EQ((*grown)->Find(N("com."), RRType::kDS)->size(), 2u);
  EXPECT_FALSE((*grown)->SameContent(*lower));
}

// What one in-memory copy of the root zone costs a resolver or server (the
// 2018-04-11 model zone, plain and signed with the benchmark's key).
TEST(ZoneSnapshot, BuildFootprint) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer allocators do not report through mallinfo2";
#else
  // Heap bytes in use: mallinfo2's small-chunk total plus its mmapped total.
  const auto heap_in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  // Megabytes (10^6 bytes) of heap that Build adds and the snapshot keeps.
  const auto footprint_mb = [&](const Zone& zone) {
    const std::size_t before = heap_in_use();
    const SnapshotPtr snapshot = ZoneSnapshot::Build(zone);
    const std::size_t after = heap_in_use();
    EXPECT_EQ(snapshot->record_count(), zone.record_count());
    return static_cast<double>(after - before) / 1e6;
  };

  const RootZoneModel model;
  const Zone plain = model.Snapshot({2018, 4, 11});
  util::Rng key_rng(0xD15EC);
  const Zone signed_zone =
      SignZone(plain, crypto::GenerateKey(crypto::kZskFlags, key_rng),
               {0, 0xFFFFFFFF});
  const double plain_mb = footprint_mb(plain);
  const double signed_mb = footprint_mb(signed_zone);
  std::printf("snapshot heap: plain %.2f MB (%zu records), signed %.2f MB "
              "(%zu records)\n",
              plain_mb, plain.record_count(), signed_mb,
              signed_zone.record_count());
  EXPECT_LE(plain_mb, 3.0);
  EXPECT_LE(signed_mb, 6.5);
#endif
}

TEST(ZoneSnapshot, MessageViewEncodesByteIdenticalToMessage) {
  const RootZoneModel model;
  const Zone master = model.Snapshot({2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(master);

  const Name qname = N("www.example.com.");
  LookupView view = snapshot->Lookup(qname, RRType::kA);
  ASSERT_EQ(view.disposition, LookupDisposition::kReferral);

  dns::MessageView borrowed;
  borrowed.header.id = 0x1234;
  borrowed.header.qr = true;
  borrowed.questions.push_back({qname, RRType::kA, dns::RRClass::kIN});
  borrowed.answers = view.answers;
  borrowed.authority = view.authority;
  borrowed.additional = view.additional;

  dns::Message owned;
  owned.header = borrowed.header;
  owned.questions = borrowed.questions;
  const LookupResult materialized = view.Materialize();
  for (const auto& s : materialized.answers)
    for (auto& rr : s.ToRecords()) owned.answers.push_back(rr);
  for (const auto& s : materialized.authority)
    for (auto& rr : s.ToRecords()) owned.authority.push_back(rr);
  for (const auto& s : materialized.additional)
    for (auto& rr : s.ToRecords()) owned.additional.push_back(rr);

  // Unlimited and truncating encodes are both byte-identical.
  EXPECT_EQ(dns::EncodeMessage(borrowed), dns::EncodeMessage(owned));
  for (const std::size_t max : {512u, 256u, 64u}) {
    EXPECT_EQ(dns::EncodeMessage(borrowed, max),
              dns::EncodeMessage(owned, max))
        << "max_size=" << max;
  }
}

}  // namespace
}  // namespace rootless::zone
