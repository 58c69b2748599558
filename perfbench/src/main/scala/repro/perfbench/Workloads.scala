package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.ais.Datasets
import repro.baselines.{GTI, SLI}
import repro.core.{CellStats, Habit, HabitConfig, MotionGraph}
import repro.eval.{DTW, EvalResult, Gap, GapHarness}
import repro.exp.Prep
import repro.geo.{Geo, LatLng}
import repro.preprocess.{Cleaner, TripSegmenter}

/** One benchmark workload: a dataset, the resolutions its build path
  * produces, and how many gap seeds its queries use. Every pass of every
  * workload runs the whole system (build, GTI build, HABIT and GTI
  * queries, evaluation), each path timed on its own, so every end-to-end
  * metric is measured on every workload. The workloads differ in which
  * path dominates a pass.
  */
final case class Workload(name: String, buildRes: Seq[Int], gapSeeds: Int,
                          generate: SparkSession => DataFrame) {
  require(buildRes.contains(Workloads.HabitConf.res), s"$name queries a resolution it does not build")
}

object Workloads {
  /** HABIT and GTI configurations of Table 4, on 60-min gaps. */
  val HabitConf = HabitConfig(res = 10, toleranceM = 100)
  val GtiRmM    = 250.0
  val GtiRdDeg  = 5e-4
  val GapSec    = 3600L

  // Both worlds keep the fixed dataset seeds of `Prep` (DAN 11, SAR 17)
  // and the run's seed picks the gaps. With per-seed worlds, single
  // outlier trips dominated the tail and mean metrics: over five DAN
  // seeds habit_p99_ms read 0.9-26 ms and dtw_mean_m 194-2270 m, and the
  // SAR r=10 graph read 1.2-1.7 MB, so runs with different seeds would
  // not measure the same workload.
  val all: Seq[Workload] = Seq(
    // Build path: Spark does over half of a pass. DAN is the largest
    // dataset and r = 6..10 is the Table 2 sweep, which a single-pass
    // multi-resolution build would replace.
    Workload("dan-build", 6 to 10, gapSeeds = 12, Datasets.dan(_, 160, seed = 11)),
    // Query path: snap, A*, projection and RDP, GTI and DTW do about 60%
    // of a pass. SAR's all-traffic mix snaps endpoints off-graph and makes
    // A* fail, which is where the latency tail lives.
    Workload("sar-query", Seq(10), gapSeeds = 10, Datasets.sar(_, 400, 120, seed = 17)))

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** Result of one pass of the build path. */
final case class Built(prep: Prep.Prepared, graphs: Seq[(Int, MotionGraph)], bytes: Seq[(Int, Long)],
                       seconds: Double)

/** One pass of one imputer over a gap list: per-query latency and answers. */
final case class Queried(ns: IndexedSeq[Long], seconds: Double, paths: IndexedSeq[IndexedSeq[LatLng]])

/** Result of one evaluation pass: HABIT and SLI through `GapHarness.evaluate`. */
final case class Evaluated(habit: EvalResult, sli: EvalResult, seconds: Double)

/** The three paths of the system, each called through the program's
  * public API with spans around every layer.
  */
final class Paths(spark: SparkSession, tracer: Tracer, counters: Option[SparkCounters], obs: Obs) {

  /** A span whose Spark jobs are attributed to `name`. */
  def sparkLayer[A](name: String)(body: => A): A =
    tracer.span(name)(counters.fold(body)(_.attribute(name)(body)))

  /** raw → clean → segment → 70/30 split → graphs at every resolution,
    * each with its Table 2 size. Every stage is materialised at its own
    * boundary, so the same Spark actions run whether or not it is traced.
    */
  def build(name: String, raw: DataFrame, resolutions: Seq[Int], traced: Boolean): Built = {
    val t0 = System.nanoTime()
    val t  = if (traced) tracer else Paths.Off
    def layer[A](n: String)(body: => A): A = if (traced) sparkLayer(n)(body) else body
    val (prep, graphs, bytes) = t.span("build") {
      val cleaned = layer("clean") { val c = Cleaner.clean(raw).cache(); val n = c.count(); (c, n) }
      val trips   = layer("segment") { val s = TripSegmenter.segment(cleaned._1).cache(); val n = s.count(); (s, n) }
      val prep    = Prep.Prepared(name, raw, cleaned._1, trips._1)
      val train   = layer("split") { prep.collected; prep.trainDf.count() }
      if (traced) {
        obs.add("clean.rows_out", cleaned._2.toDouble)
        obs.add("segment.rows_out", trips._2.toDouble)
        obs.add("segment.trips", prep.collected.size.toDouble)
        obs.add("split.train_rows", train.toDouble)
      }
      val graphs = resolutions.map(r => r -> layer("cellstats")(t.span(s"graph.r$r")(MotionGraph.build(prep.trainDf, r))))
      val bytes = t.span("graph.bytes")(graphs.map { case (r, g) => r -> g.serializedSizeBytes })
      (prep, graphs, bytes)
    }
    val seconds = (System.nanoTime() - t0) / 1e9
    // The split of `MotionGraph.build` into its two aggregations and
    // `fromTables` is timed after the pass, on tables cached at the layer
    // boundaries. Its graph is dropped: caching changes the order in which
    // edges are collected, and A* breaks ties between equally short paths
    // by that order.
    if (traced) resolutions.foreach { r =>
      val cells = tracer.span(s"cells.r$r") { val d = CellStats.cellTable(prep.trainDf, r).cache(); d.count(); d }
      val edges = tracer.span(s"edges.r$r") { val d = CellStats.edgeTable(prep.trainDf, r).cache(); d.count(); d }
      tracer.span(s"assemble.r$r")(MotionGraph.fromTables(cells, edges, r))
      cells.unpersist(true); edges.unpersist(true)
    }
    Seq(prep.trainDf, prep.trips, prep.cleaned).foreach(_.unpersist(true))
    Built(prep, graphs, bytes, seconds)
  }

  /** `Habit.impute` over every gap, one client in a closed loop. Traced
    * passes replay the query step by step instead.
    */
  def habit(h: Habit, gaps: IndexedSeq[Gap], traced: Boolean): Queried = {
    var pairs = 0
    closedLoop(gaps) { g =>
      if (!traced) h.impute(g.from, g.to)
      else {
        // Each traced query is paired with an untraced one, moments apart
        // and in alternating order, so that their difference is the tracing
        // overhead, not drift in machine speed or a cache warmed by the
        // first of the two.
        def untraced(): Unit = {
          val s = System.nanoTime(); h.impute(g.from, g.to)
          obs.add("habit.paired_untraced_ms", (System.nanoTime() - s) / 1e6)
        }
        pairs += 1
        if (pairs % 2 == 0) untraced()
        val path = QueryPath.habit(h, g.from, g.to, tracer, obs).path
        if (pairs % 2 == 1) untraced()
        path
      }
    }
  }

  /** `GTI.impute` over every gap, one client in a closed loop. */
  def gti(m: GTI, gaps: IndexedSeq[Gap], traced: Boolean): Queried =
    closedLoop(gaps)(g => QueryPath.gti(m, g.from, g.to, if (traced) tracer else Paths.Off, obs))

  private def closedLoop(gaps: IndexedSeq[Gap])(f: Gap => IndexedSeq[LatLng]): Queried = {
    val ns    = new Array[Long](gaps.size)
    val paths = new Array[IndexedSeq[LatLng]](gaps.size)
    val t0    = System.nanoTime()
    var i     = 0
    while (i < gaps.size) {
      val s = System.nanoTime()
      paths(i) = f(gaps(i))
      ns(i) = System.nanoTime() - s
      i += 1
    }
    Queried(ns.toIndexedSeq, (System.nanoTime() - t0) / 1e9, paths.toIndexedSeq)
  }

  /** `GapHarness.evaluate` for HABIT and SLI. The traced pass does the
    * same work gap by gap, timing imputation and DTW apart.
    */
  def eval(h: Habit, gaps: IndexedSeq[Gap], traced: Boolean): Evaluated = {
    val t0 = System.nanoTime()
    val (he, se) =
      if (!traced) (GapHarness.evaluate(h.impute, gaps), GapHarness.evaluate(SLI.impute, gaps))
      else tracer.span("eval") {
        def run(method: String, f: (LatLng, LatLng) => IndexedSeq[LatLng]): EvalResult = {
          val d = gaps.map { g =>
            val s       = System.nanoTime()
            val imputed = tracer.span(s"eval.$method")(f(g.from, g.to))
            val lat     = (System.nanoTime() - s) / 1e9
            val a = Geo.densify(imputed, DTW.DensifyM); val b = Geo.densify(g.truth, DTW.DensifyM)
            obs.add("dtw.cells", a.size.toDouble * b.size)
            (tracer.span("dtw")(DTW.pathErrorM(imputed, g.truth)), lat)
          }
          EvalResult(d.map(_._1), d.map(_._2))
        }
        (run("habit", h.impute), run("sli", SLI.impute))
      }
    Evaluated(he, se, (System.nanoTime() - t0) / 1e9)
  }
}

object Paths {
  /** A disabled tracer for untraced passes of a traced run. */
  val Off = new Tracer(false)
}
