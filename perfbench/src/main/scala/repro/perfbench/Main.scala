package repro.perfbench

import java.io.File
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.GTI
import repro.core.Habit
import repro.eval.{DTW, EvalResult, Gap}
import repro.h3.HexGrid
import scala.collection.mutable

/** Benchmark entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints one line per metric (name, value, unit), an environment record,
  * and as its last line one JSON object with `correct`, `attempted`,
  * `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
  * measured without tracing; `--trace 1` reports the per-layer metrics.
  * Exits 1 when a correctness gate fails and 2 on bad arguments.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def usage(msg: String): Nothing = {
      Console.err.println(s"perfbench: $msg\nusage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
        "--seed <n> --seconds <s> --trace <0|1>")
      sys.exit(2)
    }
    val w       = opts.get("workload").flatMap(Workloads.byName).getOrElse(usage("unknown or missing --workload"))
    val seed    = opts.get("seed").flatMap(_.toLongOption).getOrElse(usage("missing --seed"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(usage("missing --seconds"))
    val traced  = opts.get("trace") match {
      case Some("0") => false
      case Some("1") => true
      case _         => usage("--trace must be 0 or 1")
    }
    val out = new File(sys.props.getOrElse("perfbench.out", ".bench_build"))
    val r   = new Runner(w, seed, seconds, traced, out).run()

    r.env.foreach { case (k, v) => println(f"env  $k%-20s $v") }
    r.metrics.foreach { case (k, v, u) => println(f"metric  $k%-28s ${v}%-24s $u") }
    r.ungated.foreach { case (k, v, u) => println(f"metric  $k%-28s ${v}%-24s $u%-6s (not gated)") }
    Gates.failed.foreach { case (m, n) => println(s"GATE FAILED ($n x): $m") }
    val correct = Gates.failed.isEmpty
    println(Json.obj(Seq("correct" -> correct, "attempted" -> r.attempted, "failed" -> r.failed,
      "metrics" -> r.metrics.map { case (k, v, u) => k -> Seq("value" -> v, "unit" -> u) })))
    System.out.flush()
    sys.exit(if (correct) 0 else 1)
  }
}

/** Every pass of one path in a run, each flagged traced or not. */
final class Passes[A] {
  val all = mutable.ArrayBuffer.empty[(Boolean, A)]
  def add(traced: Boolean, a: A): A = { all += ((traced, a)); a }
  def untraced: Seq[A] = all.collect { case (false, a) => a }.toSeq
  def traced: Seq[A]   = all.collect { case (true, a) => a }.toSeq
  def last: A          = all.last._2
}

final case class RunResult(metrics: Seq[(String, Double, String)], ungated: Seq[(String, Double, String)],
                           attempted: Long, failed: Long,
                           env: Seq[(String, String)])

/** One run of one workload in one JVM. */
final class Runner(w: Workload, seed: Long, seconds: Double, traced: Boolean, out: File) {
  private val obs    = new Obs
  private val tracer = new Tracer(traced)
  private var attempted = 0L

  private def now(): Long = System.nanoTime()
  private def secs(t0: Long): Double = (now() - t0) / 1e9

  /** Local Spark with N <= nproc cores; master, shuffle partitions and AQE
    * are set here, never inherited from the environment.
    */
  val cores = math.min(4, Runtime.getRuntime.availableProcessors())
  private def session(): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.adaptive.enabled", "true")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(out, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    HexGrid.registerUdfs(s)
    s
  }

  /** HABIT and GTI each run over the gap list until this long has gone in
    * a pass, so that a few fast queries are not timed in a window so short
    * that one noisy moment decides them.
    */
  private val QuerySeconds = 1.5

  def run(): RunResult = {
    val setup0   = now()
    val spark    = session()
    val counters = if (traced) Some(SparkCounters.register(spark.sparkContext)) else None
    val paths    = new Paths(spark, tracer, counters, obs)

    val builds = new Passes[Built]
    val habits = new Passes[Queried]
    val gtis   = new Passes[Queried]
    val evals  = new Passes[Evaluated]
    var gapSets = Vector.empty[IndexedSeq[Gap]]
    var lastGti: GTI = null

    /** One pass of the whole system over `raw`; returns its gaps. The
      * untimed warm-up pass (`record` false) runs queries and evaluation
      * once over the first 100 gaps only: enough to compile them.
      */
    def pass(raw: DataFrame, tr: Boolean, record: Boolean): IndexedSeq[Gap] = {
      val p0    = now()
      val built = paths.build(w.name, raw, w.buildRes, tr)
      val all   = (1 to w.gapSeeds).flatMap(k => built.prep.gaps(Workloads.GapSec, seed * 1000 + k))
      val gaps  = if (record) all else all.take(100)
      if (record) Gates.check(gaps.nonEmpty, s"${w.name} has no gap to impute")
      val g0  = now()
      val gti = (if (tr) tracer else Paths.Off).span("gti.build")(
        GTI.build(built.prep.gtiPaths, Workloads.GtiRmM, Workloads.GtiRdDeg))
      if (tr) obs.add("gti.build_s", secs(g0))
      val habit = new Habit(built.graphs.toMap.apply(Workloads.HabitConf.res), Workloads.HabitConf)
      if (record) { builds.add(tr, built); gapSets :+= gaps; lastGti = gti }
      if (gaps.nonEmpty) {
        def rounds(run: => Queried, log: Passes[Queried]): Unit = {
          val t0 = now()
          if (!record) run
          else while (secs(t0) < QuerySeconds) log.add(tr, run)
        }
        rounds(paths.habit(habit, gaps, tr), habits)
        rounds(paths.gti(gti, gaps, tr), gtis)
        val e = paths.eval(habit, gaps, tr); if (record) evals.add(tr, e)
        Console.err.println(f"perfbench: pass (traced=$tr, warm-up=${!record}) ${secs(p0)}%.1f s: " +
          f"build ${built.seconds}%.1f s, ${gaps.size} gaps, eval ${e.seconds}%.1f s")
      }
      gaps
    }

    val g0  = now()
    val raw = paths.sparkLayer("ais.generate")(w.generate(spark).cache())
    val rawRows = raw.count()
    obs.add("ais.generate_s", secs(g0))
    // One untimed pass warms the JIT and Spark's generated-code cache, so
    // that the timed passes run warm code.
    pass(raw, tr = false, record = false)
    val setupS = secs(setup0)

    // Timed passes: at least one, and when traced at least two, alternating
    // untraced and traced; then more while the next pass, as long as the
    // last one, still ends within the run's seconds.
    val loop0 = now()
    var n = 0
    var lastPass = 0.0
    while (n < (if (traced) 2 else 1) || (secs(loop0) + lastPass <= seconds && gapSets.forall(_.nonEmpty))) {
      val p0 = now()
      val j0 = JvmSnapshot.now()
      pass(raw, tr = traced && n % 2 == 1, record = true)
      val d = JvmSnapshot.now() - j0
      obs.add("jvm.gc_count", d.gcCount.toDouble); obs.add("jvm.gc_ms", d.gcMs.toDouble)
      obs.add("jvm.jit_ms", d.jitMs.toDouble)
      lastPass = secs(p0)
      n += 1
    }
    val gaps = gapSets.head
    val (metrics, ungated) = if (gaps.isEmpty) (Seq.empty, Seq.empty) else {
      attempted = builds.all.size + gaps.size.toLong * (habits.all.size + gtis.all.size + 2 * evals.all.size)
      // Whole-run checks, made in both modes.
      Gates.check(gapSets.forall(_ == gaps), "passes over the same data cut different gaps")
      val fallbacks = checkHabit(habits, new Habit(builds.last.graphs.toMap.apply(Workloads.HabitConf.res), Workloads.HabitConf), gaps)
      for (q <- gtis.all.map(_._2); i <- gaps.indices) Gates.path("GTI", gaps(i).from, gaps(i).to, q.paths(i))
      for (e <- evals.all.map(_._2); d <- e.habit.dtws ++ e.sli.dtws) Gates.check(!d.isNaN && !d.isInfinite, "non-finite DTW value")
      for (b <- builds.all.map(_._2)) {
        val sizes = b.bytes.sortBy(_._1).map(_._2)
        Gates.check(sizes.sliding(2).forall(s => s.size < 2 || s(0) < s(1)), "graph size does not grow strictly with r")
        Gates.check(b.graphs.map(g => (g._1, g._2.nodeCount, g._2.edgeCount)) ==
          builds.last.graphs.map(g => (g._1, g._2.nodeCount, g._2.edgeCount)), "passes built different graphs")
      }
      val gtiDtws = gaps.indices.map(i => DTW.pathErrorM(gtis.untraced.last.paths(i), gaps(i).truth))
      Gates.check(gtiDtws.forall(d => !d.isNaN && !d.isInfinite), "non-finite GTI DTW value")
      fingerprint(builds.last, fallbacks, evals.untraced.last.habit.medianDtw)
      if (!traced) (endToEnd(setupS, builds, habits, evals, fallbacks, gtiDtws), latency(habits, gtis, evals, "_"))
      else (perLayer(rawRows, builds, habits, evals, fallbacks, counters.get, lastGti, gaps) ++
        latency(habits, gtis, evals, "."), Seq.empty)
    }
    writeTrace()
    val environment = env(spark)
    spark.stop()
    // An operation that throws ends the run without a result; a
    // straight-line fallback is a valid answer, counted by habit_path_rate.
    RunResult(metrics, ungated, attempted, failed = 0L, environment)
  }

  /** Checks every HABIT answer (from the gap's start to its end, finite,
    * the same in every pass) and replays each gap once, untimed, through
    * [[QueryPath]] to check that the replay returns exactly what
    * `Habit.impute` returned. Returns the number of gaps answered with the
    * straight-line fallback.
    */
  private def checkHabit(habits: Passes[Queried], h: Habit, gaps: IndexedSeq[Gap]): Int = {
    val ref = habits.untraced.head.paths
    for (q <- habits.all.map(_._2); i <- gaps.indices) Gates.path("HABIT", gaps(i).from, gaps(i).to, q.paths(i))
    habits.all.foreach { case (_, q) => Gates.check(q.paths == ref, "HABIT answers differ between passes") }
    gaps.indices.count { i =>
      val a = QueryPath.habit(h, gaps(i).from, gaps(i).to, Paths.Off, obs)
      Gates.check(a.path == ref(i), "step-by-step HABIT replay differs from Habit.impute")
      a.fallback
    }
  }

  /** Values that must be equal in the untraced and the traced run of one
    * seed. Each run writes its own and compares with the other's, if that
    * run has been made in this checkout.
    */
  private def fingerprint(b: Built, fallbacks: Int, dtwMedian: Double): Unit = {
    val fields = b.graphs.sortBy(_._1).flatMap { case (r, g) =>
      Seq(s"graph.nodes.r$r" -> g.nodeCount.toString, s"graph.edges.r$r" -> g.edgeCount.toString)
    } ++ Seq("fallbacks" -> fallbacks.toString, "dtw_median_m" -> dtwMedian.toString)
    val dir  = new File(out, "fingerprints"); dir.mkdirs()
    val source = sys.props.getOrElse("perfbench.source_sha", "unknown")
    def file(t: Boolean) = new File(dir, s"${w.name}-seed$seed-$source-trace${if (t) 1 else 0}.json")
    val mine = Json.obj(fields)
    val other = file(!traced)
    if (other.exists()) {
      val theirs = new String(java.nio.file.Files.readAllBytes(other.toPath), "UTF-8").trim
      Gates.check(theirs == mine, s"graph sizes, fallbacks or dtw_median_m differ from the ${if (traced) "untraced" else "traced"} run of this seed")
    }
    java.nio.file.Files.write(file(traced).toPath, mine.getBytes("UTF-8"))
  }

  private def ms(ns: Iterable[Long]): IndexedSeq[Double] = ns.map(_ / 1e6).toIndexedSeq

  /** End-to-end metrics that the benchmark gates: each repeats across
    * runs well within its bound on both workloads.
    */
  private def endToEnd(setupS: Double, builds: Passes[Built], habits: Passes[Queried],
                       evals: Passes[Evaluated], fallbacks: Int,
                       gtiDtws: IndexedSeq[Double]): Seq[(String, Double, String)] = {
    val habitE = evals.untraced.last.habit
    Seq(
      ("setup_s", setupS, "s"),
      ("build_s", Stats.median(builds.untraced.map(_.seconds)), "s"),
      ("graph_mb", builds.last.bytes.map(_._2).sum / 1e6, "MB"),
      ("habit_path_rate", 1.0 - fallbacks.toDouble / habits.last.paths.size, "ratio"),
      ("dtw_median_m", habitE.medianDtw, "m"),
      ("dtw_mean_m", habitE.meanDtw, "m"),
      ("gti_dtw_median_m", EvalResult(gtiDtws, IndexedSeq.empty).medianDtw, "m"))
  }

  /** Single-threaded timings of the untraced passes: query latency pooled
    * over every query, and the median evaluation pass. They are printed by
    * every run and reported per layer by traced runs, but not gated: on
    * shared hardware they varied by 0.25-0.65 (quartile spread over median)
    * between runs, with the machine's single-thread speed.
    */
  private def latency(habits: Passes[Queried], gtis: Passes[Queried], evals: Passes[Evaluated],
                      sep: String): Seq[(String, Double, String)] = {
    val habitMs = habits.untraced.flatMap(q => ms(q.ns))
    val gtiMs   = gtis.untraced.flatMap(q => ms(q.ns))
    Seq(
      (s"eval${if (sep == "_") "_s" else ".s"}", Stats.median(evals.untraced.map(_.seconds)), "s"),
      (s"habit${sep}p50_ms", Stats.percentile(habitMs, 0.50), "ms"),
      (s"habit${sep}p99_ms", Stats.percentile(habitMs, 0.99), "ms"),
      (s"habit${sep}qps", habitMs.size / habits.untraced.map(_.seconds).sum, "1/s"),
      (s"gti${sep}p50_ms", Stats.percentile(gtiMs, 0.50), "ms"),
      (s"gti${sep}p99_ms", Stats.percentile(gtiMs, 0.99), "ms"))
  }

  private def perLayer(rawRows: Long, builds: Passes[Built], habits: Passes[Queried],
                       evals: Passes[Evaluated], fallbacks: Int,
                       sc: SparkCounters, gtiM: GTI, gaps: IndexedSeq[Gap]): Seq[(String, Double, String)] = {
    val spark   = sc.snapshot()
    val nBuilds = builds.traced.size.toDouble
    def sp(layer: String, f: SparkTally => Long): Double = spark.get(layer).fold(0.0)(f(_).toDouble) / nBuilds
    def sec(name: String): IndexedSeq[Double] = tracer.durations(name).map(_ / 1e9)
    def us(name: String): IndexedSeq[Double]  = tracer.durations(name).map(_ / 1e3)
    def med(xs: Seq[Double]): Double  = if (xs.isEmpty) 0.0 else Stats.median(xs)
    def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.mean(xs)
    def pct(xs: Seq[Double], q: Double): Double = if (xs.isEmpty) 0.0 else Stats.percentile(xs, q)
    val built    = builds.last
    val perRes   = (6 to 10).map(r => r -> built.graphs.toMap.get(r))
    val cellsPer = (6 to 10).map(r => r -> med(sec(s"cells.r$r")))
    val edgesPer = (6 to 10).map(r => r -> med(sec(s"edges.r$r")))
    val rowsOut  = med(obs.get("clean.rows_out"))
    val astar    = us("astar")
    val habitUn  = obs.get("habit.paired_untraced_ms")
    val habitTr  = tracer.durations("habit.query").map(_ / 1e6)
    val selfUs   = Seq("snap", "astar", "project", "rdp").map(n => us(n).sum).sum / habitTr.size
    val evalUn   = evals.untraced.map(_.seconds)
    val evalTr   = evals.traced.map(_.seconds)
    val buildUn  = builds.untraced.map(_.seconds)
    val buildTr  = builds.traced.map(_.seconds)
    Seq(
      ("ais.generate_s", med(obs.get("ais.generate_s")), "s"),
      ("ais.raw_rows", rawRows.toDouble, "count"),
      ("clean.s", med(sec("clean")), "s"),
      ("clean.rows_in", rawRows.toDouble, "count"),
      ("clean.rows_out", rowsOut, "count"),
      ("clean.keep_ratio", rowsOut / rawRows, "ratio"),
      ("clean.spark_stages", sp("clean", _.stages), "count"),
      ("segment.s", med(sec("segment")), "s"),
      ("segment.rows_out", med(obs.get("segment.rows_out")), "count"),
      ("segment.trips", med(obs.get("segment.trips")), "count"),
      ("segment.spark_stages", sp("segment", _.stages), "count"),
      ("split.s", med(sec("split")), "s"),
      ("split.train_rows", med(obs.get("split.train_rows")), "count"),
      ("cells.s", cellsPer.map(_._2).sum, "s"),
      ("edges.s", edgesPer.map(_._2).sum, "s")) ++
    cellsPer.map { case (r, v) => (s"cells.s.r$r", v, "s") } ++
    edgesPer.map { case (r, v) => (s"edges.s.r$r", v, "s") } ++
    Seq(
      ("cellstats.spark_jobs", sp("cellstats", _.jobs), "count"),
      ("cellstats.spark_stages", sp("cellstats", _.stages), "count"),
      ("cellstats.spark_tasks", sp("cellstats", _.tasks), "count"),
      ("cellstats.shuffle_mb", sp("cellstats", _.shuffleBytes) / 1e6, "MB"),
      ("assemble.s", (6 to 10).map(r => med(sec(s"assemble.r$r"))).sum, "s")) ++
    perRes.map { case (r, g) => (s"graph.nodes.r$r", g.fold(0.0)(_.nodeCount.toDouble), "count") } ++
    perRes.map { case (r, g) => (s"graph.edges.r$r", g.fold(0.0)(_.edgeCount.toDouble), "count") } ++
    perRes.map { case (r, _) => (s"graph.bytes.r$r", built.bytes.toMap.get(r).fold(0.0)(_.toDouble), "bytes") } ++
    Seq(
      ("snap.us.p50", pct(us("snap"), 0.5), "us"),
      ("snap.us.p99", pct(us("snap"), 0.99), "us"),
      ("snap.offgraph_rate", mean(obs.get("snap.offgraph")), "ratio"),
      ("snap.fullscan_rate", mean(obs.get("snap.fullscan")), "ratio"),
      ("snap.dist_m.p50", pct(obs.get("snap.dist_m"), 0.5), "m"),
      ("snap.dist_m.p99", pct(obs.get("snap.dist_m"), 0.99), "m"),
      ("astar.us.p50", pct(astar, 0.5), "us"),
      ("astar.us.p99", pct(astar, 0.99), "us"),
      ("astar.found.us", mean(obs.get("astar.found.us")), "us"),
      ("astar.none.us", mean(obs.get("astar.none.us")), "us"),
      ("astar.none_rate", if (astar.isEmpty) 0.0 else obs.get("astar.none.us").size.toDouble / astar.size, "ratio"),
      ("astar.path_cells.p50", pct(obs.get("astar.path_cells"), 0.5), "count"),
      ("project.us", mean(us("project")), "us"),
      ("rdp.us", mean(us("rdp")), "us"),
      ("rdp.vertices_in", mean(obs.get("rdp.vertices_in")), "count"),
      ("rdp.vertices_out", mean(obs.get("rdp.vertices_out")), "count"),
      ("habit.fallback_rate", fallbacks.toDouble / gaps.size, "ratio"),
      ("gti.build_s", med(obs.get("gti.build_s")), "s"),
      ("gti.nodes", gtiM.nodeCount.toDouble, "count"),
      ("gti.edges", gtiM.edgeCount.toDouble, "count"),
      ("gti.bytes", gtiM.serializedSizeBytes.toDouble, "bytes"),
      ("gti.snap.us", mean(obs.get("gti.snap.us")), "us"),
      ("gti.search.us", mean(obs.get("gti.search.us")), "us"),
      ("dtw.ms.p50", pct(tracer.durations("dtw").map(_ / 1e6), 0.5), "ms"),
      ("dtw.ms.mean", mean(tracer.durations("dtw").map(_ / 1e6)), "ms"),
      ("dtw.cells", mean(obs.get("dtw.cells")), "count"),
      ("gaps.n", gaps.size.toDouble, "count"),
      ("gaps.truth_points", gaps.map(_.truth.size).sum.toDouble, "count"),
      ("jvm.gc_count", mean(obs.get("jvm.gc_count")), "count"),
      ("jvm.gc_ms", mean(obs.get("jvm.gc_ms")), "ms"),
      ("jvm.jit_ms", mean(obs.get("jvm.jit_ms")), "ms"),
      ("query.self_us", selfUs, "us"),
      ("query.untraced_us", Stats.mean(habitUn) * 1e3, "us"),
      ("trace.overhead.habit_p50_ms", Stats.median(habitTr) - Stats.median(habitUn), "ms"),
      ("trace.overhead.build_s", if (buildUn.isEmpty) 0.0 else med(buildTr) - med(buildUn), "s"),
      ("trace.overhead.eval_s", med(evalTr) - med(evalUn), "s"))
  }

  private def writeTrace(): Unit = if (traced) tracer.writeJsonLines(new File(out, s"traces/${w.name}-seed$seed.jsonl"))

  private def env(spark: SparkSession): Seq[(String, String)] = {
    val conf = spark.conf
    Seq(
      "workload"           -> w.name,
      "seed"               -> seed.toString,
      "trace"              -> (if (traced) "1" else "0"),
      "nproc"              -> Runtime.getRuntime.availableProcessors().toString,
      "jvm"                -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "xmx_mb"             -> (Runtime.getRuntime.maxMemory() / (1L << 20)).toString,
      "spark"              -> spark.version,
      "spark_master"       -> spark.sparkContext.master,
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "aqe"                -> conf.get("spark.sql.adaptive.enabled"),
      "git_sha"            -> sys.props.getOrElse("perfbench.git_sha", "unknown"),
      "source_sha"         -> sys.props.getOrElse("perfbench.source_sha", "unknown"))
  }
}
