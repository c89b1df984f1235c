// Tests for the immutable arena-backed zone snapshot layer: lookup parity
// with zone::Zone, structural sharing under Apply, serialization parity,
// DiffSnapshots equivalence, the zero-copy MessageView wire path, and
// concurrent reads of one shared snapshot.
#include <gtest/gtest.h>

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
#include "dns/message.h"
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
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

bool SameSection(const std::vector<dns::RRsetView>& got,
                 const std::vector<RRset>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                    [](const dns::RRsetView& g, const RRset& w) {
                      return *g.name == w.name && g.type == w.type &&
                             g.rrclass == w.rrclass && g.ttl == w.ttl &&
                             std::equal(g.rdatas.begin(), g.rdatas.end(),
                                        w.rdatas.begin(), w.rdatas.end());
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

// The model root zone of `date`, signed with a fixed key.
Zone SignedModelZone(const RootZoneModel& model, const util::CivilDate& date) {
  util::Rng rng(7);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  return SignZone(model.Snapshot(date), zsk, {0, 2'000'000'000});
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

  // Round-trip through the mutable form is lossless.
  const Zone back = snapshot->ToZone();
  EXPECT_EQ(SerializeZone(back), SerializeZone(master));

  // Canonical iteration matches AllRRsets.
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
  const ZoneDiff diff = DiffZones(today, tomorrow);
  ASSERT_FALSE(diff.added.empty());
  ASSERT_FALSE(diff.removed.empty());
  auto applied = ZoneSnapshot::Apply(ZoneSnapshot::Build(today), diff);
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

TEST(ZoneSnapshot, ApplyMatchesApplyDiffAndSharesPages) {
  const RootZoneModel model;
  const Zone today = model.Snapshot({2018, 4, 11});
  const Zone tomorrow = model.Snapshot({2018, 4, 12});
  const ZoneDiff diff = DiffZones(today, tomorrow);
  ASSERT_FALSE(diff.empty());

  const SnapshotPtr base = ZoneSnapshot::Build(today);
  auto applied = ZoneSnapshot::Apply(base, diff);
  ASSERT_TRUE(applied.ok());

  // Content identical to rebuilding from the new day's zone.
  const SnapshotPtr rebuilt = ZoneSnapshot::Build(tomorrow);
  EXPECT_TRUE((*applied)->SameContent(*rebuilt));
  EXPECT_EQ((*applied)->Serial(), tomorrow.Serial());

  // Structural sharing: one new delta page, every base page shared, and the
  // delta page holds exactly the added+changed RRsets.
  EXPECT_EQ((*applied)->page_count(), base->page_count() + 1);
  EXPECT_EQ((*applied)->SharedPageCount(*base), base->page_count());
  EXPECT_EQ((*applied)->newest_page_rrset_count(),
            diff.added.size() + diff.changed.size());

  // Chained Apply keeps sharing the original page.
  const Zone day3 = model.Snapshot({2018, 4, 13});
  auto applied2 = ZoneSnapshot::Apply(*applied, DiffZones(tomorrow, day3));
  ASSERT_TRUE(applied2.ok());
  EXPECT_TRUE((*applied2)->SameContent(*ZoneSnapshot::Build(day3)));
  EXPECT_EQ((*applied2)->SharedPageCount(*base), base->page_count());
}

TEST(ZoneSnapshot, ApplyLeavesUnchangedViewsAliasingBaseArena) {
  const RootZoneModel model;
  const Zone today = model.Snapshot({2018, 4, 11});
  const Zone tomorrow = model.Snapshot({2018, 4, 12});
  const ZoneDiff diff = DiffZones(today, tomorrow);

  // Pick an RRset untouched by the diff.
  std::set<std::string> touched;
  for (const auto& s : diff.added) touched.insert(s.name.ToString());
  for (const auto& k : diff.removed) touched.insert(k.name.ToString());
  for (const auto& s : diff.changed) touched.insert(s.name.ToString());
  Name untouched = N(".");
  bool found = false;
  for (const Name& child : today.DelegatedChildren()) {
    if (!touched.count(child.ToString())) {
      untouched = child;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);

  const SnapshotPtr base = ZoneSnapshot::Build(today);
  auto applied = ZoneSnapshot::Apply(base, diff);
  ASSERT_TRUE(applied.ok());

  const auto before = base->Find(untouched, RRType::kNS);
  const auto after = (*applied)->Find(untouched, RRType::kNS);
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(after.has_value());
  // Zero-copy: the derived snapshot serves the very same arena memory.
  EXPECT_EQ(after->rdatas.data(), before->rdatas.data());
  EXPECT_EQ(after->name, before->name);
}

TEST(ZoneSnapshot, ApplyRejectsBadDiffLikeApplyDiff) {
  const RootZoneModel model;
  const SnapshotPtr base = ZoneSnapshot::Build(model.Snapshot({2019, 6, 7}));

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
}

TEST(ZoneSnapshot, SerializationParityWithZone) {
  const RootZoneModel model;
  const Zone master = model.Snapshot({2019, 6, 7});
  const SnapshotPtr snapshot = ZoneSnapshot::Build(master);

  const util::Bytes from_zone = SerializeZone(master);
  const util::Bytes from_snapshot = SerializeSnapshot(*snapshot);
  EXPECT_EQ(from_snapshot, from_zone);

  auto restored = DeserializeSnapshot(from_snapshot);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE((*restored)->SameContent(*snapshot));
}

TEST(ZoneSnapshot, DiffSnapshotsMatchesDiffZones) {
  const RootZoneModel model;
  const Zone today = model.Snapshot({2018, 4, 11});
  const Zone tomorrow = model.Snapshot({2018, 4, 12});

  const ZoneDiff want = DiffZones(today, tomorrow);
  const ZoneDiff got = DiffSnapshots(*ZoneSnapshot::Build(today),
                                     *ZoneSnapshot::Build(tomorrow));
  EXPECT_EQ(got.added, want.added);
  EXPECT_EQ(got.removed, want.removed);
  EXPECT_EQ(got.changed, want.changed);
  EXPECT_EQ(SerializeDiff(got), SerializeDiff(want));

  // And across an Apply chain (page structure differs, content does not).
  auto applied =
      ZoneSnapshot::Apply(ZoneSnapshot::Build(today), want);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(
      DiffSnapshots(*ZoneSnapshot::Build(tomorrow), **applied).empty());
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
