// zonetool — a file-based CLI over the library, the kind of operational
// tool a resolver operator adopting the paper's proposal would run:
//
//   zonetool gen <YYYY-MM-DD> <zone.db>        synthesize a root zone
//   zonetool parse <zone.db>                   parse + stats
//   zonetool keygen <key.secret>               generate a signing key
//   zonetool sign <in.db> <key.secret> <out.db>  DNSKEY+NSEC+RRSIG
//   zonetool verify <signed.db> <key.secret>   offline validation
//   zonetool digest <zone.db>                  whole-zone digest
//   zonetool diff <old.db> <new.db>            structural diff summary
//   zonetool compress <in> <out.rzc>           RZC compress any file
//   zonetool decompress <in.rzc> <out>         RZC decompress
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "crypto/dnssec.h"
#include "util/base64.h"
#include "util/strings.h"
#include "zone/evolution.h"
#include "zone/master_file.h"
#include "zone/rzc.h"
#include "zone/sign.h"
#include "zone/zone_diff.h"
#include "zone/zone_snapshot.h"

namespace {

using namespace rootless;

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool WriteFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

util::Result<zone::Zone> LoadZone(const std::string& path) {
  std::string text;
  if (!ReadFile(path, text)) return util::Error("cannot read " + path);
  auto records = zone::ParseMasterFile(text);
  if (!records.ok()) return records.error();
  zone::Zone z;
  for (const auto& rr : *records) {
    ROOTLESS_RETURN_IF_ERROR(z.AddRecord(rr));
  }
  return z;
}

util::Result<crypto::SigningKey> LoadKey(const std::string& path) {
  std::string hex;
  if (!ReadFile(path, hex)) return util::Error("cannot read " + path);
  auto secret = util::HexDecode(util::TrimWhitespace(hex));
  if (!secret.ok()) return secret.error();
  crypto::SigningKey key;
  key.secret = std::move(*secret);
  const auto id = crypto::Sha256::Hash(key.secret);
  key.dnskey.flags = crypto::kZskFlags;
  key.dnskey.protocol = 3;
  key.dnskey.algorithm = crypto::kSimSigAlgorithm;
  key.dnskey.public_key.assign(id.begin(), id.end());
  return key;
}

util::Result<util::CivilDate> ParseDate(std::string_view text) {
  const auto parts = util::Split(text, '-');
  if (parts.size() != 3) return util::Error("expected YYYY-MM-DD");
  auto y = util::ParseU32(parts[0]);
  auto m = util::ParseU32(parts[1]);
  auto d = util::ParseU32(parts[2]);
  if (!y.ok() || !m.ok() || !d.ok()) return util::Error("bad date");
  util::CivilDate date{static_cast<int>(*y), static_cast<int>(*m),
                       static_cast<int>(*d)};
  if (!util::IsValidDate(date)) return util::Error("invalid date");
  return date;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "zonetool: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: zonetool gen|parse|keygen|sign|verify|digest|diff|"
                 "compress|decompress ...\n");
    return 2;
  }
  const std::string command = argv[1];

  if (command == "gen" && argc == 4) {
    auto date = ParseDate(argv[2]);
    if (!date.ok()) return Fail(date.error().message());
    const zone::RootZoneModel model;
    const zone::Zone z = model.Snapshot(*date);
    if (!WriteFile(argv[3], zone::SerializeMasterFile(z.AllRecords())))
      return Fail("cannot write output");
    std::printf("wrote %zu records (%zu RRsets, serial %u) to %s\n",
                z.record_count(), z.rrset_count(), z.Serial(), argv[3]);
    return 0;
  }

  if (command == "parse" && argc == 3) {
    auto z = LoadZone(argv[2]);
    if (!z.ok()) return Fail(z.error().message());
    std::printf("%s: %zu records, %zu RRsets, %zu delegations, serial %u\n",
                argv[2], z->record_count(), z->rrset_count(),
                z->DelegatedChildren().size(), z->Serial());
    return 0;
  }

  if (command == "keygen" && argc == 3) {
    // Deterministic keys would be a vulnerability in a real tool; this
    // simulation derives one from the output path so runs are reproducible.
    util::Rng rng(dns::Name::Parse(argv[2]).ok()
                      ? std::hash<std::string>{}(argv[2])
                      : 1);
    const auto key = crypto::GenerateKey(crypto::kZskFlags, rng);
    if (!WriteFile(argv[2], util::HexEncode(key.secret) + "\n"))
      return Fail("cannot write key");
    std::printf("wrote key (tag %u) to %s\n", key.key_tag(), argv[2]);
    return 0;
  }

  if (command == "sign" && argc == 5) {
    auto z = LoadZone(argv[2]);
    if (!z.ok()) return Fail(z.error().message());
    auto key = LoadKey(argv[3]);
    if (!key.ok()) return Fail(key.error().message());
    const zone::Zone signed_zone =
        zone::SignZone(*z, *key, {0, 0xFFFFFFFF});
    if (!WriteFile(argv[4],
                   zone::SerializeMasterFile(signed_zone.AllRecords())))
      return Fail("cannot write output");
    std::printf("signed %zu RRsets -> %zu records in %s\n", z->rrset_count(),
                signed_zone.record_count(), argv[4]);
    return 0;
  }

  if (command == "verify" && argc == 4) {
    auto z = LoadZone(argv[2]);
    if (!z.ok()) return Fail(z.error().message());
    auto key = LoadKey(argv[3]);
    if (!key.ok()) return Fail(key.error().message());
    crypto::KeyStore store;
    store.AddKey(*key);
    auto validated =
        crypto::ValidateZoneRRsets(z->AllRRsets(), key->dnskey, store, 1000);
    if (!validated.ok()) return Fail("INVALID: " + validated.error().message());
    std::printf("OK: %zu RRsets validated\n", *validated);
    return 0;
  }

  if (command == "digest" && argc == 3) {
    auto z = LoadZone(argv[2]);
    if (!z.ok()) return Fail(z.error().message());
    const auto digest = crypto::ZoneDigest(z->AllRRsets());
    std::printf("%s  %s\n",
                util::HexEncode(std::span(digest)).c_str(), argv[2]);
    return 0;
  }

  if (command == "diff" && argc == 4) {
    auto old_zone = LoadZone(argv[2]);
    if (!old_zone.ok()) return Fail(old_zone.error().message());
    auto new_zone = LoadZone(argv[3]);
    if (!new_zone.ok()) return Fail(new_zone.error().message());
    const zone::ZoneDiff diff =
        zone::DiffSnapshots(*zone::ZoneSnapshot::Build(*old_zone),
                            *zone::ZoneSnapshot::Build(*new_zone));
    std::printf("%zu added, %zu removed, %zu changed RRsets (%zu bytes "
                "serialized)\n",
                diff.added.size(), diff.removed.size(), diff.changed.size(),
                zone::SerializeDiff(diff).size());
    for (const auto& s : diff.added) {
      std::printf("  + %s %s\n", s.name.ToString().c_str(),
                  dns::RRTypeToString(s.type).c_str());
    }
    for (const auto& k : diff.removed) {
      std::printf("  - %s %s\n", k.name.ToString().c_str(),
                  dns::RRTypeToString(k.type).c_str());
    }
    return 0;
  }

  if (command == "compress" && argc == 4) {
    std::string data;
    if (!ReadFile(argv[2], data)) return Fail("cannot read input");
    const auto compressed = zone::RzcCompressText(data);
    if (!WriteFile(argv[3],
                   std::string_view(
                       reinterpret_cast<const char*>(compressed.data()),
                       compressed.size())))
      return Fail("cannot write output");
    std::printf("%zu -> %zu bytes (%.1f%%)\n", data.size(), compressed.size(),
                100.0 * static_cast<double>(compressed.size()) /
                    std::max<std::size_t>(1, data.size()));
    return 0;
  }

  if (command == "decompress" && argc == 4) {
    std::string data;
    if (!ReadFile(argv[2], data)) return Fail("cannot read input");
    auto raw = zone::RzcDecompressText(util::Bytes(data.begin(), data.end()));
    if (!raw.ok()) return Fail(raw.error().message());
    if (!WriteFile(argv[3], *raw)) return Fail("cannot write output");
    std::printf("%zu -> %zu bytes\n", data.size(), raw->size());
    return 0;
  }

  return Fail("unknown command or wrong arguments: " + command);
}
