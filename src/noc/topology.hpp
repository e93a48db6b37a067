#pragma once
// Regular 2D-mesh NoC topology (paper §3.2).
//
// "Such a chip consists of regular tiles, where each tile can be a
//  general-purpose processor, a DSP, a memory subsystem, etc.  A router is
//  embedded within each tile with the objective of connecting it to its
//  neighboring tiles."

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/error.hpp"

namespace holms::noc {

using TileId = std::size_t;

enum class Dir : std::uint8_t { kLocal = 0, kNorth, kSouth, kEast, kWest };
inline constexpr std::size_t kNumPorts = 5;

/// W x H mesh with XY-dimension-ordered routing helpers.
class Mesh2D {
 public:
  Mesh2D(std::size_t width, std::size_t height)
      : w_(width), h_(height) {
    if (width == 0 || height == 0) {
      throw holms::InvalidArgument("Mesh2D: empty mesh");
    }
  }

  std::size_t width() const { return w_; }
  std::size_t height() const { return h_; }
  std::size_t num_tiles() const { return w_ * h_; }

  std::size_t x_of(TileId t) const { return t % w_; }
  std::size_t y_of(TileId t) const { return t / w_; }
  TileId tile_at(std::size_t x, std::size_t y) const { return y * w_ + x; }

  /// Manhattan hop distance — the XY-routing path length.
  std::size_t hops(TileId a, TileId b) const {
    return static_cast<std::size_t>(
               std::abs(static_cast<long>(x_of(a)) -
                        static_cast<long>(x_of(b)))) +
           static_cast<std::size_t>(
               std::abs(static_cast<long>(y_of(a)) -
                        static_cast<long>(y_of(b))));
  }

  /// Next output direction under XY routing from `here` toward `dest`.
  Dir xy_next(TileId here, TileId dest) const {
    if (here == dest) return Dir::kLocal;
    const std::size_t hx = x_of(here), dx = x_of(dest);
    if (hx < dx) return Dir::kEast;
    if (hx > dx) return Dir::kWest;
    return y_of(here) < y_of(dest) ? Dir::kSouth : Dir::kNorth;
  }

  /// Neighbor tile in a direction; throws if off-mesh.
  TileId neighbor(TileId t, Dir d) const {
    const std::size_t x = x_of(t), y = y_of(t);
    switch (d) {
      case Dir::kNorth:
        if (y == 0) break;
        return tile_at(x, y - 1);
      case Dir::kSouth:
        if (y + 1 >= h_) break;
        return tile_at(x, y + 1);
      case Dir::kEast:
        if (x + 1 >= w_) break;
        return tile_at(x + 1, y);
      case Dir::kWest:
        if (x == 0) break;
        return tile_at(x - 1, y);
      case Dir::kLocal:
        return t;
    }
    throw holms::OutOfRange("Mesh2D::neighbor: off-mesh");
  }

  bool has_neighbor(TileId t, Dir d) const {
    switch (d) {
      case Dir::kNorth: return y_of(t) > 0;
      case Dir::kSouth: return y_of(t) + 1 < h_;
      case Dir::kEast: return x_of(t) + 1 < w_;
      case Dir::kWest: return x_of(t) > 0;
      case Dir::kLocal: return true;
    }
    return false;
  }

  /// Enumerates the XY route (sequence of tiles, inclusive of endpoints).
  std::vector<TileId> xy_route(TileId src, TileId dst) const {
    std::vector<TileId> path{src};
    TileId cur = src;
    while (cur != dst) {
      cur = neighbor(cur, xy_next(cur, dst));
      path.push_back(cur);
    }
    return path;
  }

  /// Number of directed inter-tile links (4 outgoing per tile; edge tiles
  /// simply never use their off-mesh slots).
  std::size_t num_links() const { return num_tiles() * 4; }

  /// Dense index of the directed link leaving `from` in direction `d`
  /// (d != kLocal).  XyRouteTable enumerates the same indices arithmetically,
  /// so link loads computed by evaluate_mapping and SwapEvaluator agree slot
  /// for slot.
  std::size_t link_index(TileId from, Dir d) const {
    return from * 4 + (static_cast<std::size_t>(d) - 1);
  }

  /// Number of physical (undirected) inter-tile links: (w-1)*h horizontal +
  /// w*(h-1) vertical.  This is the id namespace fault::FaultSchedule uses
  /// for Target::kLink events — a physical link failing takes out both
  /// directed channels at once.
  std::size_t num_undirected_links() const {
    return (w_ - 1) * h_ + w_ * (h_ - 1);
  }

  /// Canonical (tile, direction) endpoint of undirected link `id`:
  /// horizontal links first (row-major, East from their west endpoint), then
  /// vertical links (row-major, South from their north endpoint).
  std::pair<TileId, Dir> undirected_link(std::size_t id) const {
    const std::size_t horizontal = (w_ - 1) * h_;
    if (id < horizontal) {
      return {tile_at(id % (w_ - 1), id / (w_ - 1)), Dir::kEast};
    }
    id -= horizontal;
    if (id < w_ * (h_ - 1)) {
      return {tile_at(id % w_, id / w_), Dir::kSouth};
    }
    throw holms::OutOfRange("Mesh2D::undirected_link: bad link id");
  }

 private:
  std::size_t w_;
  std::size_t h_;
};

/// XY routes by arithmetic.  An XY route runs along the source row to the
/// destination column, then along that column to the destination, and
/// Mesh2D::link_index is affine along each run: stride +-4 per X hop and
/// +-4w per Y hop.  So a route's links follow from its endpoints'
/// coordinates and nothing per route is stored.  The per-tile coordinate
/// array (O(tiles)) spares the SA delta path the div/mod pair that
/// Mesh2D::x_of/y_of cost on every lookup.
class XyRouteTable {
 public:
  explicit XyRouteTable(const Mesh2D& mesh)
      : w_(mesh.width()), xy_(mesh.num_tiles()) {
    for (TileId t = 0; t < mesh.num_tiles(); ++t) {
      xy_[t] = {static_cast<std::uint32_t>(mesh.x_of(t)),
                static_cast<std::uint32_t>(mesh.y_of(t))};
    }
  }

  /// Calls f(link) with each directed-link index of the XY route src -> dst,
  /// in route order: the X run along the source row, then the Y run along
  /// the destination column from the corner tile.
  template <typename F>
  void for_each_link(TileId src, TileId dst, F&& f) const {
    const std::ptrdiff_t sx = xy_[src].x, sy = xy_[src].y;
    const std::ptrdiff_t dx = xy_[dst].x, dy = xy_[dst].y;
    const Dir xdir = dx > sx ? Dir::kEast : Dir::kWest;
    const std::ptrdiff_t xstep = dx > sx ? 4 : -4;
    std::ptrdiff_t link = link_at(src, xdir);
    for (std::ptrdiff_t i = dx > sx ? dx - sx : sx - dx; i > 0; --i) {
      f(static_cast<std::uint32_t>(link));
      link += xstep;
    }
    const Dir ydir = dy > sy ? Dir::kSouth : Dir::kNorth;
    const auto row = static_cast<std::ptrdiff_t>(4 * w_);
    const std::ptrdiff_t ystep = dy > sy ? row : -row;
    link = link_at(static_cast<TileId>(sy) * w_ + static_cast<TileId>(dx),
                   ydir);
    for (std::ptrdiff_t i = dy > sy ? dy - sy : sy - dy; i > 0; --i) {
      f(static_cast<std::uint32_t>(link));
      link += ystep;
    }
  }

  /// Hop count (route length) — same value as Mesh2D::hops.
  std::size_t hops(TileId src, TileId dst) const {
    const Coord s = xy_[src], d = xy_[dst];
    return (s.x > d.x ? s.x - d.x : d.x - s.x) +
           (s.y > d.y ? s.y - d.y : d.y - s.y);
  }

  /// True when the table was built for a mesh of `mesh`'s shape.
  bool built_for(const Mesh2D& mesh) const {
    return w_ == mesh.width() && xy_.size() == mesh.num_tiles();
  }

 private:
  // Mesh2D::link_index, signed for the run arithmetic.
  static std::ptrdiff_t link_at(TileId from, Dir d) {
    return static_cast<std::ptrdiff_t>(from * 4 +
                                       (static_cast<std::size_t>(d) - 1));
  }

  struct Coord {
    std::uint32_t x;  // column
    std::uint32_t y;  // row
  };
  std::size_t w_;
  std::vector<Coord> xy_;  // tile -> coordinates
};

/// Bit-energy model in the style of Hu–Marculescu [20][23]:
/// moving one bit across h hops costs (h+1) router traversals and h link
/// traversals.
struct EnergyModel {
  double e_router_pj = 0.98;  // pJ per bit per router
  double e_link_pj = 1.74;    // pJ per bit per inter-tile link
  double e_buffer_pj = 1.10;  // pJ per bit buffered under contention

  double bit_energy(std::size_t hops) const {
    return static_cast<double>(hops + 1) * e_router_pj +
           static_cast<double>(hops) * e_link_pj;
  }
  /// Joules for `bits` over `hops`.
  double transfer_energy(double bits, std::size_t hops) const {
    return bits * bit_energy(hops) * 1e-12;
  }
};

}  // namespace holms::noc
