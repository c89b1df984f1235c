#include "dns/rdata.h"

#include <algorithm>
#include <cstdio>

#include "util/base64.h"
#include "util/check.h"
#include "util/strings.h"

namespace rootless::dns {

using util::Error;
using util::Result;

// ---------------------------------------------------------------- addresses

Result<Ipv4> Ipv4::Parse(std::string_view text) {
  const auto parts = util::Split(text, '.');
  if (parts.size() != 4) return Error("ipv4: expected 4 octets");
  std::uint32_t addr = 0;
  for (const auto& p : parts) {
    auto v = util::ParseU32(p);
    if (!v.ok() || *v > 255) return Error("ipv4: bad octet");
    addr = addr << 8 | *v;
  }
  return Ipv4{addr};
}

std::string Ipv4::ToString() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", addr >> 24, addr >> 16 & 255,
                addr >> 8 & 255, addr & 255);
  return buf;
}

Result<Ipv6> Ipv6::Parse(std::string_view text) {
  // Split on "::" first; each side is a list of 16-bit groups.
  std::vector<std::uint16_t> head, tail;
  bool has_gap = false;
  const std::size_t gap = text.find("::");
  std::string_view left = text, right;
  if (gap != std::string_view::npos) {
    has_gap = true;
    left = text.substr(0, gap);
    right = text.substr(gap + 2);
    if (right.find("::") != std::string_view::npos)
      return Error("ipv6: multiple ::");
  }
  auto parse_groups = [](std::string_view s,
                         std::vector<std::uint16_t>& out) -> bool {
    if (s.empty()) return true;
    for (const auto& g : util::Split(s, ':')) {
      if (g.empty() || g.size() > 4) return false;
      std::uint32_t v = 0;
      for (char c : g) {
        int nib;
        if (c >= '0' && c <= '9') nib = c - '0';
        else if (c >= 'a' && c <= 'f') nib = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F') nib = c - 'A' + 10;
        else return false;
        v = v << 4 | static_cast<std::uint32_t>(nib);
      }
      out.push_back(static_cast<std::uint16_t>(v));
    }
    return true;
  };
  if (!parse_groups(left, head)) return Error("ipv6: bad group");
  if (!parse_groups(right, tail)) return Error("ipv6: bad group");
  const std::size_t total = head.size() + tail.size();
  if (has_gap ? total >= 8 : total != 8) return Error("ipv6: wrong group count");

  Ipv6 out;
  std::size_t i = 0;
  for (std::uint16_t g : head) {
    out.addr[i++] = static_cast<std::uint8_t>(g >> 8);
    out.addr[i++] = static_cast<std::uint8_t>(g);
  }
  i = 16 - tail.size() * 2;
  for (std::uint16_t g : tail) {
    out.addr[i++] = static_cast<std::uint8_t>(g >> 8);
    out.addr[i++] = static_cast<std::uint8_t>(g);
  }
  return out;
}

std::string Ipv6::ToString() const {
  std::uint16_t groups[8];
  for (int i = 0; i < 8; ++i) {
    groups[i] = static_cast<std::uint16_t>(addr[2 * i] << 8 | addr[2 * i + 1]);
  }
  // Find the longest run of zero groups (length >= 2) for "::".
  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (groups[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[j] == 0) ++j;
    if (j - i > best_len) {
      best_len = j - i;
      best_start = i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  char buf[8];
  auto join = [&](int from, int to) {
    std::string part;
    for (int i = from; i < to; ++i) {
      if (i > from) part += ":";
      std::snprintf(buf, sizeof(buf), "%x", groups[i]);
      part += buf;
    }
    return part;
  };
  if (best_start < 0) return join(0, 8);
  return join(0, best_start) + "::" + join(best_start + best_len, 8);
}

// -------------------------------------------------------------- wire encode

namespace {

void EncodeTypeBitmap(const std::vector<RRType>& types, util::ByteWriter& w) {
  // RFC 4034 §4.1.2 window-block encoding.
  std::vector<RRType> sorted = types;
  std::sort(sorted.begin(), sorted.end());
  std::size_t i = 0;
  while (i < sorted.size()) {
    const std::uint8_t window =
        static_cast<std::uint8_t>(static_cast<std::uint16_t>(sorted[i]) >> 8);
    std::uint8_t bitmap[32] = {};
    int maxbyte = -1;
    while (i < sorted.size() &&
           (static_cast<std::uint16_t>(sorted[i]) >> 8) == window) {
      const std::uint8_t low =
          static_cast<std::uint8_t>(static_cast<std::uint16_t>(sorted[i]));
      bitmap[low / 8] |= static_cast<std::uint8_t>(0x80 >> (low % 8));
      maxbyte = std::max(maxbyte, low / 8);
      ++i;
    }
    w.WriteU8(window);
    w.WriteU8(static_cast<std::uint8_t>(maxbyte + 1));
    for (int b = 0; b <= maxbyte; ++b) w.WriteU8(bitmap[b]);
  }
}

Result<std::vector<RRType>> DecodeTypeBitmap(util::ByteReader& r,
                                             std::size_t end_offset) {
  std::vector<RRType> out;
  while (r.offset() < end_offset) {
    std::uint8_t window = 0, len = 0;
    if (!r.ReadU8(window) || !r.ReadU8(len))
      return Error(ErrorCode::kTruncated, "nsec: truncated bitmap");
    if (len == 0 || len > 32)
      return Error(ErrorCode::kCorrupted, "nsec: bad bitmap length");
    for (int b = 0; b < len; ++b) {
      std::uint8_t byte = 0;
      if (!r.ReadU8(byte))
        return Error(ErrorCode::kTruncated, "nsec: truncated bitmap");
      for (int bit = 0; bit < 8; ++bit) {
        if (byte & (0x80 >> bit)) {
          out.push_back(static_cast<RRType>(window << 8 | (b * 8 + bit)));
        }
      }
    }
  }
  return out;
}

struct WireEncoder {
  util::ByteWriter& w;

  void operator()(const AData& d) { w.WriteU32(d.address.addr); }
  void operator()(const AaaaData& d) { w.WriteBytes(d.address.addr); }
  void operator()(const NsData& d) { d.nameserver.EncodeWire(w); }
  void operator()(const CnameData& d) { d.target.EncodeWire(w); }
  void operator()(const SoaData& d) {
    d.mname.EncodeWire(w);
    d.rname.EncodeWire(w);
    w.WriteU32(d.serial);
    w.WriteU32(d.refresh);
    w.WriteU32(d.retry);
    w.WriteU32(d.expire);
    w.WriteU32(d.minimum);
  }
  void operator()(const MxData& d) {
    w.WriteU16(d.preference);
    d.exchange.EncodeWire(w);
  }
  void operator()(const TxtData& d) {
    for (const auto& s : d.strings) {
      w.WriteU8(static_cast<std::uint8_t>(std::min<std::size_t>(s.size(), 255)));
      w.WriteString(std::string_view(s).substr(0, 255));
    }
  }
  void operator()(const DsData& d) {
    w.WriteU16(d.key_tag);
    w.WriteU8(d.algorithm);
    w.WriteU8(d.digest_type);
    w.WriteBytes(d.digest);
  }
  void operator()(const DnskeyData& d) {
    w.WriteU16(d.flags);
    w.WriteU8(d.protocol);
    w.WriteU8(d.algorithm);
    w.WriteBytes(d.public_key);
  }
  void operator()(const RrsigData& d) {
    w.WriteU16(static_cast<std::uint16_t>(d.type_covered));
    w.WriteU8(d.algorithm);
    w.WriteU8(d.labels);
    w.WriteU32(d.original_ttl);
    w.WriteU32(d.expiration);
    w.WriteU32(d.inception);
    w.WriteU16(d.key_tag);
    d.signer.EncodeWire(w);
    w.WriteBytes(d.signature);
  }
  void operator()(const NsecData& d) {
    d.next.EncodeWire(w);
    EncodeTypeBitmap(d.types, w);
  }
  void operator()(const RawData& d) { w.WriteBytes(d.bytes); }
};

}  // namespace

void EncodeRdata(const Rdata& rdata, util::ByteWriter& writer) {
  std::visit(WireEncoder{writer}, rdata);
}

bool RdataFitsRdlength(const Rdata& rdata) {
  util::ByteWriter w;
  EncodeRdata(rdata, w);
  return w.size() <= kMaxRdataLength;
}

Result<Rdata> DecodeRdata(RRType type, std::size_t rdlength,
                          util::ByteReader& r) {
  if (rdlength > kMaxRdataLength)
    return Error(ErrorCode::kCorrupted, "rdata: longer than 65535 bytes");
  const std::size_t end = r.offset() + rdlength;
  if (end > r.size()) return Error(ErrorCode::kTruncated, "rdata: truncated");

  auto finish = [&](Rdata d) -> Result<Rdata> {
    if (r.offset() != end)
      return Error(ErrorCode::kCorrupted, "rdata: trailing bytes");
    return d;
  };

  switch (type) {
    case RRType::kA: {
      std::uint32_t v = 0;
      if (rdlength != 4 || !r.ReadU32(v))
        return Error(ErrorCode::kCorrupted, "a: bad length");
      return finish(AData{Ipv4{v}});
    }
    case RRType::kAAAA: {
      if (rdlength != 16) return Error(ErrorCode::kCorrupted, "aaaa: bad length");
      AaaaData d;
      std::span<const std::uint8_t> view;
      if (!r.ReadSpan(16, view))
        return Error(ErrorCode::kTruncated, "aaaa: truncated");
      std::copy(view.begin(), view.end(), d.address.addr.begin());
      return finish(std::move(d));
    }
    case RRType::kNS: {
      auto n = Name::DecodeWire(r);
      if (!n.ok()) return n.error();
      return finish(NsData{std::move(*n)});
    }
    case RRType::kCNAME:
    case RRType::kPTR: {  // PTR shares CNAME's shape; we model it as CNAME
      auto n = Name::DecodeWire(r);
      if (!n.ok()) return n.error();
      return finish(CnameData{std::move(*n)});
    }
    case RRType::kSOA: {
      SoaData d;
      auto mname = Name::DecodeWire(r);
      if (!mname.ok()) return mname.error();
      auto rname = Name::DecodeWire(r);
      if (!rname.ok()) return rname.error();
      d.mname = std::move(*mname);
      d.rname = std::move(*rname);
      if (!r.ReadU32(d.serial) || !r.ReadU32(d.refresh) || !r.ReadU32(d.retry) ||
          !r.ReadU32(d.expire) || !r.ReadU32(d.minimum))
        return Error(ErrorCode::kTruncated, "soa: truncated");
      return finish(std::move(d));
    }
    case RRType::kMX: {
      MxData d;
      if (!r.ReadU16(d.preference))
        return Error(ErrorCode::kTruncated, "mx: truncated");
      auto n = Name::DecodeWire(r);
      if (!n.ok()) return n.error();
      d.exchange = std::move(*n);
      return finish(std::move(d));
    }
    case RRType::kTXT: {
      TxtData d;
      while (r.offset() < end) {
        std::uint8_t len = 0;
        std::string s;
        if (!r.ReadU8(len) || !r.ReadString(len, s))
          return Error(ErrorCode::kTruncated, "txt: truncated");
        d.strings.push_back(std::move(s));
      }
      return finish(std::move(d));
    }
    case RRType::kDS: {
      DsData d;
      if (!r.ReadU16(d.key_tag) || !r.ReadU8(d.algorithm) ||
          !r.ReadU8(d.digest_type))
        return Error(ErrorCode::kTruncated, "ds: truncated");
      if (!r.ReadBytes(end - r.offset(), d.digest))
        return Error(ErrorCode::kTruncated, "ds: truncated");
      return finish(std::move(d));
    }
    case RRType::kDNSKEY: {
      DnskeyData d;
      if (!r.ReadU16(d.flags) || !r.ReadU8(d.protocol) || !r.ReadU8(d.algorithm))
        return Error(ErrorCode::kTruncated, "dnskey: truncated");
      if (!r.ReadBytes(end - r.offset(), d.public_key))
        return Error(ErrorCode::kTruncated, "dnskey: truncated");
      return finish(std::move(d));
    }
    case RRType::kRRSIG: {
      RrsigData d;
      std::uint16_t covered = 0;
      if (!r.ReadU16(covered) || !r.ReadU8(d.algorithm) || !r.ReadU8(d.labels) ||
          !r.ReadU32(d.original_ttl) || !r.ReadU32(d.expiration) ||
          !r.ReadU32(d.inception) || !r.ReadU16(d.key_tag))
        return Error(ErrorCode::kTruncated, "rrsig: truncated");
      d.type_covered = static_cast<RRType>(covered);
      auto n = Name::DecodeWire(r);
      if (!n.ok()) return n.error();
      d.signer = std::move(*n);
      if (r.offset() > end) return Error(ErrorCode::kCorrupted, "rrsig: overflow");
      if (!r.ReadBytes(end - r.offset(), d.signature))
        return Error(ErrorCode::kTruncated, "rrsig: truncated");
      // The one type whose encoding can outgrow RDLENGTH: a compressed
      // signer of up to 255 bytes beside a signature filling the rest. It
      // encodes to 18 fixed bytes, the signer and the signature.
      if (18 + d.signer.wire_length() + d.signature.size() > kMaxRdataLength)
        return Error(ErrorCode::kCorrupted, "rrsig: longer than 65535 bytes");
      return finish(std::move(d));
    }
    case RRType::kNSEC: {
      NsecData d;
      auto n = Name::DecodeWire(r);
      if (!n.ok()) return n.error();
      d.next = std::move(*n);
      if (r.offset() > end) return Error(ErrorCode::kCorrupted, "nsec: overflow");
      auto types = DecodeTypeBitmap(r, end);
      if (!types.ok()) return types.error();
      d.types = std::move(*types);
      return finish(std::move(d));
    }
    default: {
      RawData d;
      if (!r.ReadBytes(rdlength, d.bytes))
        return Error(ErrorCode::kTruncated, "raw: truncated");
      return finish(std::move(d));
    }
  }
}

// ------------------------------------------------------------- presentation

namespace {

std::string QuoteTxt(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

struct Presenter {
  std::string operator()(const AData& d) { return d.address.ToString(); }
  std::string operator()(const AaaaData& d) { return d.address.ToString(); }
  std::string operator()(const NsData& d) { return d.nameserver.ToString(); }
  std::string operator()(const CnameData& d) { return d.target.ToString(); }
  std::string operator()(const SoaData& d) {
    return d.mname.ToString() + " " + d.rname.ToString() + " " +
           std::to_string(d.serial) + " " + std::to_string(d.refresh) + " " +
           std::to_string(d.retry) + " " + std::to_string(d.expire) + " " +
           std::to_string(d.minimum);
  }
  std::string operator()(const MxData& d) {
    return std::to_string(d.preference) + " " + d.exchange.ToString();
  }
  std::string operator()(const TxtData& d) {
    std::string out;
    for (std::size_t i = 0; i < d.strings.size(); ++i) {
      if (i) out += " ";
      out += QuoteTxt(d.strings[i]);
    }
    return out;
  }
  std::string operator()(const DsData& d) {
    return std::to_string(d.key_tag) + " " + std::to_string(d.algorithm) + " " +
           std::to_string(d.digest_type) + " " + util::HexEncode(d.digest);
  }
  std::string operator()(const DnskeyData& d) {
    return std::to_string(d.flags) + " " + std::to_string(d.protocol) + " " +
           std::to_string(d.algorithm) + " " + util::Base64Encode(d.public_key);
  }
  std::string operator()(const RrsigData& d) {
    return RRTypeToString(d.type_covered) + " " + std::to_string(d.algorithm) +
           " " + std::to_string(d.labels) + " " +
           std::to_string(d.original_ttl) + " " + std::to_string(d.expiration) +
           " " + std::to_string(d.inception) + " " + std::to_string(d.key_tag) +
           " " + d.signer.ToString() + " " + util::Base64Encode(d.signature);
  }
  std::string operator()(const NsecData& d) {
    std::string out = d.next.ToString();
    for (RRType t : d.types) out += " " + RRTypeToString(t);
    return out;
  }
  std::string operator()(const RawData& d) {
    return "\\# " + std::to_string(d.bytes.size()) + " " +
           util::HexEncode(d.bytes);
  }
};

}  // namespace

std::string RdataToString(const Rdata& rdata) {
  return std::visit(Presenter{}, rdata);
}

namespace {

Result<Rdata> ParseRdataFields(RRType type,
                               const std::vector<std::string_view>& f,
                               const Name& origin) {
  auto need = [&](std::size_t n) { return f.size() == n; };
  auto ParseNameField = [&origin](std::string_view text) -> Result<Name> {
    auto name = Name::Parse(text);
    if (!name.ok()) return name;
    // Master-file convention: names without a trailing dot are relative.
    if (!text.empty() && text.back() != '.' && !origin.is_root()) {
      return name->Concat(origin);
    }
    return name;
  };
  switch (type) {
    case RRType::kA: {
      if (!need(1)) return Error("a: expected 1 field");
      auto a = Ipv4::Parse(f[0]);
      if (!a.ok()) return a.error();
      return Rdata(AData{*a});
    }
    case RRType::kAAAA: {
      if (!need(1)) return Error("aaaa: expected 1 field");
      auto a = Ipv6::Parse(f[0]);
      if (!a.ok()) return a.error();
      return Rdata(AaaaData{*a});
    }
    case RRType::kNS: {
      if (!need(1)) return Error("ns: expected 1 field");
      auto n = ParseNameField(f[0]);
      if (!n.ok()) return n.error();
      return Rdata(NsData{std::move(*n)});
    }
    case RRType::kCNAME:
    case RRType::kPTR: {
      if (!need(1)) return Error("cname: expected 1 field");
      auto n = ParseNameField(f[0]);
      if (!n.ok()) return n.error();
      return Rdata(CnameData{std::move(*n)});
    }
    case RRType::kSOA: {
      if (!need(7)) return Error("soa: expected 7 fields");
      SoaData d;
      auto mname = ParseNameField(f[0]);
      auto rname = ParseNameField(f[1]);
      if (!mname.ok()) return mname.error();
      if (!rname.ok()) return rname.error();
      d.mname = std::move(*mname);
      d.rname = std::move(*rname);
      std::uint32_t* nums[] = {&d.serial, &d.refresh, &d.retry, &d.expire,
                               &d.minimum};
      for (int i = 0; i < 5; ++i) {
        auto v = util::ParseU32(f[2 + i]);
        if (!v.ok()) return v.error();
        *nums[i] = *v;
      }
      return Rdata(std::move(d));
    }
    case RRType::kMX: {
      if (!need(2)) return Error("mx: expected 2 fields");
      auto pref = util::ParseU32(f[0]);
      if (!pref.ok() || *pref > 0xFFFF) return Error("mx: bad preference");
      auto n = ParseNameField(f[1]);
      if (!n.ok()) return n.error();
      return Rdata(MxData{static_cast<std::uint16_t>(*pref), std::move(*n)});
    }
    case RRType::kTXT: {
      if (f.empty()) return Error("txt: expected fields");
      TxtData d;
      for (auto part : f) {
        // The zone parser strips quotes before calling us.
        d.strings.emplace_back(part);
      }
      return Rdata(std::move(d));
    }
    case RRType::kDS: {
      if (!need(4)) return Error("ds: expected 4 fields");
      DsData d;
      auto tag = util::ParseU32(f[0]);
      auto alg = util::ParseU32(f[1]);
      auto dt = util::ParseU32(f[2]);
      if (!tag.ok() || *tag > 0xFFFF) return Error("ds: bad key tag");
      if (!alg.ok() || *alg > 255) return Error("ds: bad algorithm");
      if (!dt.ok() || *dt > 255) return Error("ds: bad digest type");
      auto digest = util::HexDecode(f[3]);
      if (!digest.ok()) return digest.error();
      d.key_tag = static_cast<std::uint16_t>(*tag);
      d.algorithm = static_cast<std::uint8_t>(*alg);
      d.digest_type = static_cast<std::uint8_t>(*dt);
      d.digest = std::move(*digest);
      return Rdata(std::move(d));
    }
    case RRType::kDNSKEY: {
      if (f.size() < 4) return Error("dnskey: expected >= 4 fields");
      DnskeyData d;
      auto flags = util::ParseU32(f[0]);
      auto proto = util::ParseU32(f[1]);
      auto alg = util::ParseU32(f[2]);
      if (!flags.ok() || *flags > 0xFFFF) return Error("dnskey: bad flags");
      if (!proto.ok() || *proto > 255) return Error("dnskey: bad protocol");
      if (!alg.ok() || *alg > 255) return Error("dnskey: bad algorithm");
      std::string b64;
      for (std::size_t i = 3; i < f.size(); ++i) b64 += std::string(f[i]);
      auto key = util::Base64Decode(b64);
      if (!key.ok()) return key.error();
      d.flags = static_cast<std::uint16_t>(*flags);
      d.protocol = static_cast<std::uint8_t>(*proto);
      d.algorithm = static_cast<std::uint8_t>(*alg);
      d.public_key = std::move(*key);
      return Rdata(std::move(d));
    }
    case RRType::kRRSIG: {
      if (f.size() < 9) return Error("rrsig: expected >= 9 fields");
      RrsigData d;
      auto covered = RRTypeFromString(f[0]);
      if (!covered.ok()) return covered.error();
      d.type_covered = *covered;
      auto alg = util::ParseU32(f[1]);
      auto labels = util::ParseU32(f[2]);
      auto ottl = util::ParseU32(f[3]);
      auto exp = util::ParseU32(f[4]);
      auto inc = util::ParseU32(f[5]);
      auto tag = util::ParseU32(f[6]);
      if (!alg.ok() || !labels.ok() || !ottl.ok() || !exp.ok() || !inc.ok() ||
          !tag.ok())
        return Error("rrsig: bad numeric field");
      d.algorithm = static_cast<std::uint8_t>(*alg);
      d.labels = static_cast<std::uint8_t>(*labels);
      d.original_ttl = *ottl;
      d.expiration = *exp;
      d.inception = *inc;
      d.key_tag = static_cast<std::uint16_t>(*tag);
      auto signer = ParseNameField(f[7]);
      if (!signer.ok()) return signer.error();
      d.signer = std::move(*signer);
      std::string b64;
      for (std::size_t i = 8; i < f.size(); ++i) b64 += std::string(f[i]);
      auto sig = util::Base64Decode(b64);
      if (!sig.ok()) return sig.error();
      d.signature = std::move(*sig);
      return Rdata(std::move(d));
    }
    case RRType::kNSEC: {
      if (f.empty()) return Error("nsec: expected fields");
      NsecData d;
      auto n = ParseNameField(f[0]);
      if (!n.ok()) return n.error();
      d.next = std::move(*n);
      for (std::size_t i = 1; i < f.size(); ++i) {
        auto t = RRTypeFromString(f[i]);
        if (!t.ok()) return t.error();
        d.types.push_back(*t);
      }
      std::sort(d.types.begin(), d.types.end());
      return Rdata(std::move(d));
    }
    default: {
      // RFC 3597: \# <length> <hex>
      if (f.size() >= 2 && f[0] == "\\#") {
        auto len = util::ParseU64(f[1]);
        if (!len.ok()) return len.error();
        std::string hex;
        for (std::size_t i = 2; i < f.size(); ++i) hex += std::string(f[i]);
        auto bytes = util::HexDecode(hex);
        if (!bytes.ok()) return bytes.error();
        if (bytes->size() != *len) return Error("raw: length mismatch");
        return Rdata(RawData{std::move(*bytes)});
      }
      return Error("unsupported rdata presentation for type " +
                   RRTypeToString(type));
    }
  }
}

}  // namespace

Result<Rdata> RdataFromFields(RRType type,
                              const std::vector<std::string_view>& fields,
                              const Name& origin) {
  auto rdata = ParseRdataFields(type, fields, origin);
  if (rdata.ok() && !RdataFitsRdlength(*rdata))
    return Error("rdata: longer than 65535 bytes");
  return rdata;
}

bool RdataMatchesType(const Rdata& rdata, RRType type) {
  switch (type) {
    case RRType::kA: return std::holds_alternative<AData>(rdata);
    case RRType::kAAAA: return std::holds_alternative<AaaaData>(rdata);
    case RRType::kNS: return std::holds_alternative<NsData>(rdata);
    case RRType::kCNAME:
    case RRType::kPTR: return std::holds_alternative<CnameData>(rdata);
    case RRType::kSOA: return std::holds_alternative<SoaData>(rdata);
    case RRType::kMX: return std::holds_alternative<MxData>(rdata);
    case RRType::kTXT: return std::holds_alternative<TxtData>(rdata);
    case RRType::kDS: return std::holds_alternative<DsData>(rdata);
    case RRType::kDNSKEY: return std::holds_alternative<DnskeyData>(rdata);
    case RRType::kRRSIG: return std::holds_alternative<RrsigData>(rdata);
    case RRType::kNSEC: return std::holds_alternative<NsecData>(rdata);
    default: return std::holds_alternative<RawData>(rdata);
  }
}

// ------------------------------------------------------------- stored runs

std::size_t RdataRun::PrefixBytes(std::size_t n) const {
  ROOTLESS_CHECK(n <= count_);
  Iterator it = begin();
  for (std::size_t i = 0; i < n; ++i) ++it;
  return bytes_ - it.rest_.size();
}

RdataRun RdataRun::first(std::size_t n) const {
  return RdataRun(stored().first(PrefixBytes(n)), n);
}

RdataRun RdataRun::subspan(std::size_t n) const {
  return RdataRun(stored().subspan(PrefixBytes(n)), count_ - n);
}

RdataRun RdataRun::OneEmpty() {
  static constexpr std::uint8_t kStored[2] = {0, 0};  // a zero length
  return RdataRun(kStored, 1);
}

void RdataRun::Append(const Rdata& rdata, util::ByteWriter& arena) {
  const std::size_t length_at = arena.size();
  arena.WriteU16(0);
  EncodeRdata(rdata, arena);
  const std::size_t length = arena.size() - length_at - 2;
  ROOTLESS_CHECK(length <= 0xFFFF);
  arena.PatchU16(length_at, static_cast<std::uint16_t>(length));
}

Rdata RdataRun::Decode(RRType type, std::span<const std::uint8_t> wire) {
  util::ByteReader reader(wire);
  auto rdata = DecodeRdata(type, wire.size(), reader);
  ROOTLESS_CHECK(rdata.ok());
  return std::move(*rdata);
}

}  // namespace rootless::dns
