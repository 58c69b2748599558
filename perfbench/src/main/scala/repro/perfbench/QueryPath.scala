package repro.perfbench

import repro.baselines.GTI
import repro.core.{AStar, Habit, Projection}
import repro.geo.{Geo, LatLng, RDP}
import repro.h3.HexGrid
import scala.collection.mutable

/** Named observations gathered during a run, one sample per entry. */
final class Obs {
  private val m = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  def add(name: String, v: Double): Unit = m.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
  def get(name: String): IndexedSeq[Double] = m.get(name).map(_.toIndexedSeq).getOrElse(IndexedSeq.empty)
}

/** The HABIT query path (`Habit.impute`) replayed step by step through the
  * same public functions it calls, so that each step can be timed and
  * observed from outside: snap (`HexGrid.latLngToCell` +
  * `MotionGraph.nearestNode`), `AStar.shortestPath`, projection
  * (`MotionGraph.medianLatLng` or `HexGrid.cellCenter`) and `RDP.simplify`.
  * Every run checks that the replay returns exactly what `Habit.impute`
  * returns, so the per-layer numbers describe the real query.
  */
object QueryPath {

  /** `MotionGraph.nearestNode` gives up its k-ring search after this many
    * rings and scans every node.
    */
  val SnapRings = 16

  final case class Answer(path: IndexedSeq[LatLng], fallback: Boolean)

  def habit(h: Habit, from: LatLng, to: LatLng, t: Tracer, obs: Obs): Answer = {
    val g   = h.graph
    val res = h.config.res
    t.newRequest()
    t.span("habit.query") {
      def snap(p: LatLng): Option[Long] = {
        val (cell, node) = t.span("snap") {
          val c = HexGrid.latLngToCell(p, res)
          (c, g.nearestNode(c))
        }
        if (t.enabled) node.foreach { n =>
          obs.add("snap.offgraph", if (n != cell) 1 else 0)
          obs.add("snap.fullscan", if (HexGrid.gridDistance(cell, n) > SnapRings) 1 else 0)
          obs.add("snap.dist_m", Geo.haversineM(p, g.medianLatLng(n)))
        }
        node
      }
      val s     = snap(from)
      val goal  = if (s.isDefined) snap(to) else None
      val cells = (for (a <- s; b <- goal) yield {
        val start = System.nanoTime()
        val p     = t.span("astar")(AStar.shortestPath(g, a, b))
        if (t.enabled) {
          val us = (System.nanoTime() - start) / 1e3
          p match {
            case Some(cs) =>
              obs.add("astar.found.us", us); obs.add("astar.path_cells", cs.size)
              checkCellPath(h, cs, a, b)
            case None => obs.add("astar.none.us", us)
          }
        }
        p
      }).flatten
      val interior = t.span("project") {
        val mid = cells.getOrElse(IndexedSeq.empty).map { c =>
          h.config.projection match {
            case Projection.Center => HexGrid.cellCenter(c)
            case Projection.Median => g.medianLatLng(c)
          }
        }
        mid.filter(p => Geo.haversineM(p, from) > 1.0 && Geo.haversineM(p, to) > 1.0)
      }
      val raw  = from +: interior :+ to
      val path = t.span("rdp")(RDP.simplify(raw, h.config.toleranceM))
      if (t.enabled) { obs.add("rdp.vertices_in", raw.size); obs.add("rdp.vertices_out", path.size) }
      Answer(path, cells.isEmpty)
    }
  }

  /** An A* cell path must start and end at the snapped nodes and follow
    * `adjacency` edges only.
    */
  private def checkCellPath(h: Habit, cells: IndexedSeq[Long], start: Long, goal: Long): Unit = {
    Gates.check(cells.head == start && cells.last == goal, "A* path does not join the snapped nodes")
    Gates.check(cells.sliding(2).forall {
      case Seq(a, b) => h.graph.adjacency.get(a).exists(_.exists(_.to == b))
      case _         => true
    }, "A* path uses a pair of cells without an adjacency edge")
  }

  /** GTI query, traced as snap (`GTI.nearestNode` for both endpoints) and
    * search (`GTI.impute` time minus the snap time, since `impute` snaps
    * again internally).
    */
  def gti(m: GTI, from: LatLng, to: LatLng, t: Tracer, obs: Obs): IndexedSeq[LatLng] = {
    if (!t.enabled) return m.impute(from, to)
    t.newRequest()
    t.span("gti.query") {
      val t0 = System.nanoTime()
      t.span("gti.snap") { m.nearestNode(from); m.nearestNode(to) }
      val t1   = System.nanoTime()
      val path = t.span("gti.impute")(m.impute(from, to))
      val t2   = System.nanoTime()
      obs.add("gti.snap.us", (t1 - t0) / 1e3)
      obs.add("gti.search.us", math.max(0L, (t2 - t1) - (t1 - t0)) / 1e3)
      path
    }
  }
}
