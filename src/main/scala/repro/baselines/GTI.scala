package repro.baselines

import repro.core.AStar
import repro.geo.{Geo, LatLng}
import scala.collection.mutable

/** Reimplementation of GTI (Isufaj et al., SIGSPATIAL 2023) — the paper's
  * state-of-the-art competitor. GTI is network-agnostic: it builds a
  * directed graph whose nodes are the raw training-trajectory points,
  * with edges (a) between consecutive points of the same trajectory and
  * (b) between points of different trajectories within the two radius
  * parameters — `rm` meters and `rd` degrees — and imputes a gap as the
  * shortest path (in meters) between the nodes nearest to the gap
  * endpoints, found by the search HABIT uses too (`AStar.search`).
  *
  * Per-point cross-trajectory edges are capped (`maxCross`) so dense lanes
  * stay computable at bench scale; the cap is far above what the sparse
  * configurations produce, so the paper's size-vs-rd explosion (Table 2)
  * is preserved.
  */
final class GTI private (lats: Array[Double], lons: Array[Double],
                         adjIdx: Array[Array[Int]], adjCost: Array[Array[Double]],
                         rdDeg: Double, bucket: Map[(Long, Long), Array[Int]])
    extends Serializable {

  def nodeCount: Int = lats.length
  def edgeCount: Int = adjIdx.iterator.map(_.length).sum

  /** Serialized footprint in bytes — the Table 2 storage metric. */
  def serializedSizeBytes: Long = {
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(lats); oos.writeObject(lons)
    oos.writeObject(adjIdx); oos.writeObject(adjCost)
    oos.close()
    bos.size().toLong
  }

  /** Index of the training point nearest to `p` (expanding bucket rings). */
  def nearestNode(p: LatLng): Int = {
    var ring = 0
    val (bq, br) = GTI.key(p.lat, p.lon, rdDeg)
    while (ring < 1000) {
      var best = -1; var bestD = Double.PositiveInfinity
      var dq = -ring
      while (dq <= ring) {
        var dr = -ring
        while (dr <= ring) {
          if (math.max(math.abs(dq), math.abs(dr)) == ring) {
            for (i <- bucket.getOrElse((bq + dq, br + dr), Array.empty[Int])) {
              val d = Geo.haversineM(p, point(i))
              if (d < bestD) { bestD = d; best = i }
            }
          }
          dr += 1
        }
        dq += 1
      }
      if (best >= 0) return best
      ring += 1
    }
    // Degenerate fallback: full scan.
    (0 until lats.length).minBy(i => Geo.haversineM(p, point(i)))
  }

  /** Impute the gap between `from` and `to`: shortest path over the point
    * graph (cost in meters); straight segment if no path exists.
    */
  def impute(from: LatLng, to: LatLng): IndexedSeq[LatLng] = {
    val g    = nearestNode(to)
    val goal = point(g)
    // The straight-line distance to the goal bounds the remaining cost and
    // keeps the search from flooding the whole point graph on long lanes.
    val h    = (i: Int) => Geo.haversineM(point(i), goal)
    val path = AStar.search(nearestNode(from), g, h) { (u, relax) =>
      val ni = adjIdx(u); val nc = adjCost(u)
      var k = 0
      while (k < ni.length) { relax(ni(k), nc(k)); k += 1 }
    }
    val interior = path.fold(IndexedSeq.empty[LatLng])(_.map(point)
      .filter(p => Geo.haversineM(p, from) > 1.0 && Geo.haversineM(p, to) > 1.0))
    from +: interior :+ to
  }

  private def point(i: Int): LatLng = LatLng(lats(i), lons(i))
}

object GTI {
  private def key(lat: Double, lon: Double, rd: Double): (Long, Long) =
    (math.floor(lat / rd).toLong, math.floor(lon / rd).toLong)

  /** Build a GTI model from training trips: each trip is an ordered point
    * sequence (the harness supplies them post-segmentation).
    */
  def build(trips: Seq[IndexedSeq[LatLng]], rmM: Double, rdDeg: Double,
            maxCross: Int = 16): GTI = {
    val pts  = trips.flatten.toIndexedSeq
    require(pts.nonEmpty, "GTI needs at least one training point")
    val lats = pts.map(_.lat).toArray
    val lons = pts.map(_.lon).toArray
    val n    = pts.size
    val adj  = Array.fill(n)(mutable.ArrayBuffer.empty[(Int, Double)])

    // (a) consecutive-in-trajectory edges. Both directions are added: the
    // lanes are sailed both ways, and with our sparser synthetic sampling a
    // direction-restricted graph would disconnect where the real data's
    // density keeps it connected (see DESIGN.md).
    var base = 0
    for (t <- trips) {
      var i = 0
      while (i < t.size - 1) {
        val d = Geo.haversineM(t(i), t(i + 1))
        adj(base + i) += ((base + i + 1, d))
        adj(base + i + 1) += ((base + i, d))
        i += 1
      }
      base += t.size
    }

    // (b) cross-trajectory proximity edges within rd degrees and rm meters.
    // Point indices stay ascending within a bucket, so nearestNode breaks
    // distance ties by the lowest index.
    val bucket = (0 until n).groupBy(i => key(lats(i), lons(i), rdDeg))
      .view.mapValues(_.toArray).toMap
    for (i <- 0 until n) {
      val (bq, br) = key(lats(i), lons(i), rdDeg)
      val cands = mutable.ArrayBuffer.empty[(Int, Double)]
      var dq = -1
      while (dq <= 1) {
        var dr = -1
        while (dr <= 1) {
          for (j <- bucket.getOrElse((bq + dq, br + dr), Array.empty[Int]) if j != i) {
            if (math.abs(lats(j) - lats(i)) <= rdDeg && math.abs(lons(j) - lons(i)) <= rdDeg) {
              val d = Geo.haversineM(pts(i), pts(j))
              if (d <= rmM) cands += ((j, d))
            }
          }
          dr += 1
        }
        dq += 1
      }
      adj(i) ++= cands.sortBy(_._2).take(maxCross)
    }
    new GTI(lats, lons, adj.map(_.map(_._1).toArray), adj.map(_.map(_._2).toArray), rdDeg, bucket)
  }
}
