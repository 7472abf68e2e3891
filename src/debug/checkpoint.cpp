#include "debug/checkpoint.hpp"

#include <cstdio>
#include <cstring>

namespace anton2 {

namespace {

/// File magic: identifies an Anton-2 checkpoint regardless of version.
constexpr std::uint8_t kMagic[8] = { 'A', '2', 'C', 'K',
                                     'P', 'T', '\0', '\1' };

/// Sentinel ordinal for a null PacketPtr.
constexpr std::uint32_t kNullPacket = 0xffffffffu;

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

} // namespace

std::uint64_t
ckptHash(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ---------------------------------------------------------------------------
// CkptWriter
// ---------------------------------------------------------------------------

void
CkptWriter::raw(const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    stream_.insert(stream_.end(), b, b + n);
}

void
CkptWriter::u16(std::uint16_t v)
{
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
}

void
CkptWriter::u32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
CkptWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
CkptWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
CkptWriter::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
}

void
CkptWriter::tag(const char *name)
{
    u32(static_cast<std::uint32_t>(ckptHash(name, std::strlen(name))));
}

void
CkptWriter::packetRef(const PacketPtr &p)
{
    if (p == nullptr) {
        u32(kNullPacket);
        return;
    }
    auto [it, inserted] = ordinals_.try_emplace(
        p.get(), static_cast<std::uint32_t>(packets_.size()));
    if (inserted)
        packets_.push_back(p);
    u32(it->second);
}

void
CkptWriter::writeFile(const std::string &path, std::uint64_t fingerprint)
{
    // Packets contain no nested packet references, so encoding the table
    // through a scratch writer runs only the scalar paths.
    CkptWriter table;
    table.u32(static_cast<std::uint32_t>(packets_.size()));
    for (const auto &p : packets_)
        ckptEncodePacket(table, *p);

    std::vector<std::uint8_t> payload;
    payload.reserve(table.stream_.size() + stream_.size());
    payload.insert(payload.end(), table.stream_.begin(),
                   table.stream_.end());
    payload.insert(payload.end(), stream_.begin(), stream_.end());

    std::vector<std::uint8_t> file;
    file.reserve(payload.size() + 40);
    file.insert(file.end(), kMagic, kMagic + sizeof(kMagic));
    putU32(file, kCheckpointVersion);
    putU64(file, fingerprint);
    putU64(file, static_cast<std::uint64_t>(payload.size()));
    file.insert(file.end(), payload.begin(), payload.end());
    putU64(file, ckptHash(payload.data(), payload.size()));

    std::FILE *fp = std::fopen(path.c_str(), "wb");
    if (fp == nullptr)
        throw CheckpointError("checkpoint: cannot open " + path
                              + " for writing");
    const std::size_t n = std::fwrite(file.data(), 1, file.size(), fp);
    const bool ok = n == file.size() && std::fclose(fp) == 0;
    if (!ok)
        throw CheckpointError("checkpoint: short write to " + path);
}

// ---------------------------------------------------------------------------
// CkptReader
// ---------------------------------------------------------------------------

CkptReader::CkptReader(const std::string &path,
                       std::uint64_t expect_fingerprint, PacketAlloc alloc)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr)
        throw CheckpointError("checkpoint: cannot open " + path);
    std::fseek(fp, 0, SEEK_END);
    const long size = std::ftell(fp);
    std::fseek(fp, 0, SEEK_SET);
    data_.resize(size > 0 ? static_cast<std::size_t>(size) : 0);
    const std::size_t got = data_.empty()
                                ? 0
                                : std::fread(data_.data(), 1, data_.size(),
                                             fp);
    std::fclose(fp);
    if (got != data_.size())
        throw CheckpointError("checkpoint: short read from " + path);

    // Header: magic, version, fingerprint, payload size. Version and
    // fingerprint are validated before the checksum so the caller can
    // tell a format mismatch from corruption.
    if (data_.size() < sizeof(kMagic) + 4 + 8 + 8 + 8
        || std::memcmp(data_.data(), kMagic, sizeof(kMagic)) != 0)
        throw CheckpointError("checkpoint: " + path
                              + " is not an Anton-2 checkpoint");
    std::size_t off = sizeof(kMagic);
    const std::uint32_t version = getU32(data_.data() + off);
    off += 4;
    if (version != kCheckpointVersion)
        throw CheckpointError(
            "checkpoint: version mismatch (file has v"
            + std::to_string(version) + ", reader expects v"
            + std::to_string(kCheckpointVersion) + ")");
    const std::uint64_t fingerprint = getU64(data_.data() + off);
    off += 8;
    if (fingerprint != expect_fingerprint)
        throw CheckpointError(
            "checkpoint: configuration fingerprint mismatch (saved from a "
            "differently configured machine)");
    const std::uint64_t payload_size = getU64(data_.data() + off);
    off += 8;
    if (payload_size != data_.size() - off - 8)
        throw CheckpointError("checkpoint: truncated file");
    const std::uint64_t want =
        getU64(data_.data() + off + payload_size);
    if (ckptHash(data_.data() + off, payload_size) != want)
        throw CheckpointError("checkpoint: payload checksum mismatch "
                              "(file is corrupted)");
    pos_ = off;
    end_ = off + static_cast<std::size_t>(payload_size);

    // Materialize the packet table; every later packetRef resolves to
    // the same shared object, reproducing cut-through sharing.
    const std::uint32_t packets = count(1);
    if (packets > 0 && alloc == nullptr)
        throw CheckpointError("checkpoint: packet table present but no "
                              "packet allocator provided");
    packets_.reserve(packets);
    for (std::uint32_t i = 0; i < packets; ++i) {
        PacketPtr p = alloc();
        ckptDecodePacket(*this, *p);
        packets_.push_back(std::move(p));
    }
}

const std::uint8_t *
CkptReader::need(std::size_t n)
{
    if (pos_ + n > end_)
        throw CheckpointError("checkpoint: truncated payload");
    const std::uint8_t *p = data_.data() + pos_;
    pos_ += n;
    return p;
}

std::uint8_t
CkptReader::u8()
{
    return *need(1);
}

std::uint16_t
CkptReader::u16()
{
    const std::uint8_t *p = need(2);
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
CkptReader::u32()
{
    return getU32(need(4));
}

std::uint64_t
CkptReader::u64()
{
    return getU64(need(8));
}

double
CkptReader::f64()
{
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::uint32_t
CkptReader::count(std::size_t item_bytes)
{
    const std::uint32_t n = u32();
    if (n > (end_ - pos_) / item_bytes)
        throw CheckpointError("checkpoint: element count " + std::to_string(n)
                              + " exceeds the payload");
    return n;
}

std::string
CkptReader::str()
{
    const std::uint32_t n = u32();
    const std::uint8_t *p = need(n);
    return std::string(reinterpret_cast<const char *>(p), n);
}

void
CkptReader::expect(const char *name)
{
    const std::uint32_t want =
        static_cast<std::uint32_t>(ckptHash(name, std::strlen(name)));
    if (u32() != want)
        throw CheckpointError(std::string("checkpoint: section marker "
                                          "mismatch at \"")
                              + name + "\" (save/load drift)");
}

PacketPtr
CkptReader::packetRef()
{
    const std::uint32_t ord = u32();
    if (ord == kNullPacket)
        return nullptr;
    if (ord >= packets_.size())
        throw CheckpointError("checkpoint: packet ordinal out of range");
    return packets_[ord];
}

void
CkptReader::finish() const
{
    if (pos_ != end_)
        throw CheckpointError("checkpoint: trailing bytes after decode "
                              "(save/load drift)");
}

// ---------------------------------------------------------------------------
// Packet codec
// ---------------------------------------------------------------------------

void
ckptEncodePacket(CkptWriter &w, const Packet &p)
{
    w.u64(p.id);
    w.u32(p.src.node);
    w.i32(p.src.ep);
    w.u32(p.dst.node);
    w.i32(p.dst.ep);
    w.u8(static_cast<std::uint8_t>(p.tc));
    w.u8(static_cast<std::uint8_t>(p.op));
    w.u8(p.pattern);
    w.u16(p.size_flits);
    w.u32(static_cast<std::uint32_t>(p.payload.size()));
    for (const FlitPayload &f : p.payload)
        for (std::uint64_t word : f)
            w.u64(word);
    w.i32(p.counter);
    w.i32(p.mcast_group);
    w.u32(static_cast<std::uint32_t>(p.route.order.size()));
    for (int d : p.route.order)
        w.i32(d);
    w.u8(p.route.slice);
    w.u32(static_cast<std::uint32_t>(p.route.dirs.size()));
    for (Dir d : p.route.dirs)
        w.u8(static_cast<std::uint8_t>(static_cast<std::int8_t>(d)));
    w.u8(static_cast<std::uint8_t>(p.vc.policy()));
    w.u8(static_cast<std::uint8_t>(p.vc.dimsCompleted()));
    w.b(p.vc.crossedInCurrentDim());
    w.u8(static_cast<std::uint8_t>(p.chip_exit.kind));
    w.i32(p.chip_exit.endpoint);
    w.u8(p.chip_exit.dim);
    w.u8(static_cast<std::uint8_t>(static_cast<std::int8_t>(
        p.chip_exit.dir)));
    w.u8(p.chip_exit.slice);
    w.b(p.x_through);
    w.cycle(p.birth);
    w.cycle(p.inject_time);
    w.cycle(p.eject_time);
    w.i32(p.hops);
}

void
ckptDecodePacket(CkptReader &r, Packet &p)
{
    p.id = r.u64();
    p.src.node = r.u32();
    p.src.ep = r.i32();
    p.dst.node = r.u32();
    p.dst.ep = r.i32();
    p.tc = static_cast<TrafficClass>(r.u8());
    p.op = static_cast<OpKind>(r.u8());
    p.pattern = r.u8();
    p.size_flits = r.u16();
    p.payload.resize(r.count(sizeof(FlitPayload)));
    for (FlitPayload &f : p.payload)
        for (std::uint64_t &word : f)
            word = r.u64();
    p.counter = r.i32();
    p.mcast_group = r.i32();
    p.route.order.resize(r.count(4));
    for (int &d : p.route.order)
        d = r.i32();
    p.route.slice = r.u8();
    p.route.dirs.resize(r.count(1));
    for (Dir &d : p.route.dirs)
        d = static_cast<Dir>(static_cast<std::int8_t>(r.u8()));
    const auto policy = static_cast<VcPolicy>(r.u8());
    const std::uint8_t dims = r.u8();
    const bool crossed = r.b();
    p.vc = VcState(policy);
    p.vc.restoreState(dims, crossed);
    p.chip_exit.kind = static_cast<AttachPoint::Kind>(r.u8());
    p.chip_exit.endpoint = r.i32();
    p.chip_exit.dim = r.u8();
    p.chip_exit.dir = static_cast<Dir>(static_cast<std::int8_t>(r.u8()));
    p.chip_exit.slice = r.u8();
    p.x_through = r.b();
    p.birth = r.cycle();
    p.inject_time = r.cycle();
    p.eject_time = r.cycle();
    p.hops = r.i32();
}

} // namespace anton2
