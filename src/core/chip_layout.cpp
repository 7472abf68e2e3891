#include "core/chip_layout.hpp"

#include <cassert>
#include <cctype>
#include <stdexcept>

#include "routing/mesh_route.hpp"

namespace anton2 {

ChipLayout::ChipLayout(int num_endpoints, int ndims)
    : mesh_(4, 4), ndims_(ndims)
{
    if (ndims != 3) {
        throw std::invalid_argument(
            "ChipLayout models the 3-D-torus Anton 2 ASIC placement");
    }
    placeAdapters(num_endpoints);
    assignPorts();
}

void
ChipLayout::placeAdapters(int num_endpoints)
{
    channel_router_.assign(
        static_cast<std::size_t>(numChannelAdapters()), RouterId{0});

    auto place = [&](int dim, Dir dir, int slice, int u, int v) {
        channel_router_[static_cast<std::size_t>(
            channelAdapterIndex(dim, dir, slice))] = mesh_.id(u, v);
    };

    // X (dim 0): split across the two I/O edges, slice 1 on row V=0 and
    // slice 0 on row V=3, with skip channels joining the edge routers.
    place(0, Dir::Pos, 1, 0, 0);
    place(0, Dir::Neg, 1, 3, 0);
    place(0, Dir::Pos, 0, 0, 3);
    place(0, Dir::Neg, 0, 3, 3);
    skip_pairs_.push_back({ mesh_.id(0, 0), mesh_.id(3, 0) });
    skip_pairs_.push_back({ mesh_.id(0, 3), mesh_.id(3, 3) });

    // Y (dim 1) and Z (dim 2): both directions of a (dim, slice) pair on a
    // single edge router; same-slice Y and Z on the same edge.
    place(1, Dir::Pos, 0, 0, 2);
    place(1, Dir::Neg, 0, 0, 2);
    place(2, Dir::Pos, 0, 0, 1);
    place(2, Dir::Neg, 0, 0, 1);
    place(1, Dir::Pos, 1, 3, 2);
    place(1, Dir::Neg, 1, 3, 2);
    place(2, Dir::Pos, 1, 3, 1);
    place(2, Dir::Neg, 1, 3, 1);

    // Endpoint adapters fill remaining ports in router-id order.
    std::vector<int> used(static_cast<std::size_t>(mesh_.numRouters()), 0);
    for (RouterId r = 0; r < mesh_.numRouters(); ++r) {
        for (MeshDir d : kMeshDirs) {
            if (mesh_.canMove(r, d))
                ++used[r];
        }
    }
    for (const auto &[a, b] : skip_pairs_) {
        ++used[a];
        ++used[b];
    }
    for (RouterId r : channel_router_)
        ++used[r];

    for (RouterId r = 0; r < mesh_.numRouters()
                         && static_cast<int>(endpoint_router_.size())
                                < num_endpoints;
         ++r) {
        while (used[r] < kRouterPorts
               && static_cast<int>(endpoint_router_.size()) < num_endpoints) {
            endpoint_router_.push_back(r);
            ++used[r];
        }
    }
    if (static_cast<int>(endpoint_router_.size()) < num_endpoints) {
        throw std::invalid_argument(
            "too many endpoint adapters for the free router ports");
    }
}

void
ChipLayout::assignPorts()
{
    router_ports_.assign(static_cast<std::size_t>(mesh_.numRouters()),
                         std::vector<RouterPort>(kRouterPorts));

    std::vector<int> next(static_cast<std::size_t>(mesh_.numRouters()), 0);
    auto alloc = [&](RouterId r) -> RouterPort & {
        assert(next[r] < kRouterPorts && "router port budget exceeded");
        return router_ports_[r][static_cast<std::size_t>(next[r]++)];
    };

    for (RouterId r = 0; r < mesh_.numRouters(); ++r) {
        for (MeshDir d : kMeshDirs) {
            if (!mesh_.canMove(r, d))
                continue;
            auto &port = alloc(r);
            port.kind = RouterPort::Kind::Mesh;
            port.mesh_dir = d;
        }
    }
    for (const auto &[a, b] : skip_pairs_) {
        auto &pa = alloc(a);
        pa.kind = RouterPort::Kind::Skip;
        pa.skip_peer = b;
        auto &pb = alloc(b);
        pb.kind = RouterPort::Kind::Skip;
        pb.skip_peer = a;
    }
    for (ChannelAdapterId ca = 0; ca < numChannelAdapters(); ++ca) {
        auto &port = alloc(channel_router_[static_cast<std::size_t>(ca)]);
        port.kind = RouterPort::Kind::Channel;
        port.adapter = ca;
    }
    for (EndpointId e = 0; e < numEndpoints(); ++e) {
        auto &port = alloc(endpoint_router_[static_cast<std::size_t>(e)]);
        port.kind = RouterPort::Kind::Endpoint;
        port.adapter = e;
    }
}

std::optional<RouterId>
ChipLayout::skipPeer(RouterId r) const
{
    for (const auto &[a, b] : skip_pairs_) {
        if (a == r)
            return b;
        if (b == r)
            return a;
    }
    return std::nullopt;
}

int
ChipLayout::findPort(RouterId r, RouterPort::Kind kind, int adapter) const
{
    const auto &ports = router_ports_[r];
    for (int i = 0; i < static_cast<int>(ports.size()); ++i) {
        if (ports[static_cast<std::size_t>(i)].kind != kind)
            continue;
        if (kind == RouterPort::Kind::Skip
            || ports[static_cast<std::size_t>(i)].adapter == adapter) {
            return i;
        }
    }
    assert(false && "attachment not present on router");
    return -1;
}

int
ChipLayout::meshPort(RouterId r, MeshDir d) const
{
    const auto &ports = router_ports_[r];
    for (int i = 0; i < static_cast<int>(ports.size()); ++i) {
        if (ports[static_cast<std::size_t>(i)].kind == RouterPort::Kind::Mesh
            && ports[static_cast<std::size_t>(i)].mesh_dir == d) {
            return i;
        }
    }
    assert(false && "mesh direction not present on router");
    return -1;
}

int
ChipLayout::skipPort(RouterId r) const
{
    return findPort(r, RouterPort::Kind::Skip, -1);
}

int
ChipLayout::channelPort(RouterId r, ChannelAdapterId ca) const
{
    return findPort(r, RouterPort::Kind::Channel, ca);
}

int
ChipLayout::endpointPort(RouterId r, EndpointId e) const
{
    return findPort(r, RouterPort::Kind::Endpoint, e);
}

std::string
ChipLayout::channelShortName(ChannelAdapterId ca) const
{
    int dim, slice;
    Dir dir;
    channelAdapterParams(ca, dim, dir, slice);
    std::string name(1, static_cast<char>(
                            std::tolower(kDimNames[dim])));
    name += std::to_string(slice);
    name += dir == Dir::Pos ? 'p' : 'n';
    return name;
}

std::vector<ChipChannel>
ChipLayout::route(const AttachPoint &entry, const AttachPoint &exit,
                  const MeshDirOrder &order) const
{
    std::vector<ChipChannel> out;
    const RouterId r_in = attachRouter(entry);
    const RouterId r_out = attachRouter(exit);

    // Entry channel: adapter/endpoint into its router.
    if (entry.kind == AttachPoint::Kind::Channel) {
        out.push_back({ ChipChannel::Kind::AdapterToRouter, r_in, r_in,
                        channelAdapterIndex(entry.dim, entry.dir,
                                            entry.slice) });
    } else {
        out.push_back({ ChipChannel::Kind::EndpointToRouter, r_in, r_in,
                        entry.endpoint });
    }

    // A through-route continues along the same torus dimension: it arrives
    // on the channel labeled with the opposite of its travel direction and
    // departs on the channel labeled with the travel direction.
    const bool through = entry.kind == AttachPoint::Kind::Channel
                         && exit.kind == AttachPoint::Kind::Channel
                         && entry.dim == exit.dim
                         && entry.slice == exit.slice
                         && entry.dir == opposite(exit.dir);

    if (through && r_in != r_out) {
        // X through-routes skip across the chip (Section 2.2).
        assert(skipPeer(r_in) == r_out);
        out.push_back({ ChipChannel::Kind::Skip, r_in, r_out, -1 });
    } else if (!through) {
        // Local route through the mesh under direction-order routing.
        RouterId here = r_in;
        for (MeshDir d : meshRoute(mesh_, r_in, r_out, order)) {
            const RouterId next = mesh_.move(here, d);
            out.push_back({ ChipChannel::Kind::Mesh, here, next, -1 });
            here = next;
        }
    }
    // (Y/Z through-routes have r_in == r_out and need no intermediate hop.)

    // Exit channel: router out to the adapter/endpoint.
    if (exit.kind == AttachPoint::Kind::Channel) {
        out.push_back({ ChipChannel::Kind::RouterToAdapter, r_out, r_out,
                        channelAdapterIndex(exit.dim, exit.dir,
                                            exit.slice) });
    } else {
        out.push_back({ ChipChannel::Kind::RouterToEndpoint, r_out, r_out,
                        exit.endpoint });
    }
    return out;
}

ChipRouteTable::ChipRouteTable(const ChipLayout &layout,
                               const MeshDirOrder &order)
    : layout_(layout),
      num_endpoints_(static_cast<std::size_t>(layout.numEndpoints())),
      num_exits_(num_endpoints_
                 + static_cast<std::size_t>(layout.numChannelAdapters()))
{
    entries_.resize(static_cast<std::size_t>(layout.numRouters())
                    * num_exits_ * 2);
    std::vector<AttachPoint> exits;
    for (EndpointId e = 0; e < layout.numEndpoints(); ++e)
        exits.push_back(AttachPoint::forEndpoint(e));
    for (ChannelAdapterId ca = 0; ca < layout.numChannelAdapters(); ++ca) {
        int dim, slice;
        Dir dir;
        layout.channelAdapterParams(ca, dim, dir, slice);
        exits.push_back(AttachPoint::forChannel(dim, dir, slice));
    }
    const MeshGeom &mesh = layout.mesh();
    for (RouterId r = 0; r < layout.numRouters(); ++r) {
        for (std::size_t e = 0; e < num_exits_; ++e) {
            const AttachPoint &exit = exits[e];
            const RouterId r_out = layout.attachRouter(exit);
            Entry local;
            if (r == r_out) {
                // Exit the mesh here.
                if (exit.kind == AttachPoint::Kind::Endpoint) {
                    local.port = static_cast<std::int8_t>(
                        layout.endpointPort(r, exit.endpoint));
                } else {
                    local.port = static_cast<std::int8_t>(
                        layout.channelPort(
                            r, layout.channelAdapterIndex(
                                   exit.dim, exit.dir, exit.slice)));
                    local.torus_vc = true;
                }
            } else {
                // Next mesh hop under direction-order routing (M-group).
                MeshDir dir;
                const bool more = meshNextDir(mesh, r, r_out, order, dir);
                assert(more);
                (void)more;
                local.port = static_cast<std::int8_t>(layout.meshPort(r, dir));
            }
            // An X through-route crosses the chip on the skip channel
            // (T-group) until it reaches its exit router.
            Entry through = local;
            if (r != r_out) {
                through.port = layout.skipPeer(r).has_value()
                                   ? static_cast<std::int8_t>(
                                         layout.skipPort(r))
                                   : std::int8_t{ -1 };
                through.torus_vc = true;
            }
            const std::size_t i =
                (static_cast<std::size_t>(r) * num_exits_ + e) * 2;
            entries_[i] = local;
            entries_[i + 1] = through;
        }
    }
}

} // namespace anton2
