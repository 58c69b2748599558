package repro.exp

import repro.baselines.{GTI, SLI}
import repro.core.{Habit, HabitConfig, MotionGraph}
import repro.eval.{EvalResult, Gap, GapHarness}
import repro.exp.Prep.Prepared
import repro.geo.{Geo, LatLng}

/** The paper's evaluation tables (§4), each computed in exactly one place
  * for both the spark-submit jobs in ``jobs/`` and the bench suites. Every
  * `tableN` returns typed rows — our values plus the raw measurements the
  * bench shape assertions read — and `printTableN` prints them next to the
  * paper's reference values.
  */
object Tables {

  /** Tables 3 and 4 impute 60-minute gaps. */
  private val GapSec = 3600L

  /** GTI's rd values (degrees) as the paper labels them. */
  private val RdLabel = Map(1e-4 -> "1e-4", 5e-4 -> "5e-4", 1e-3 -> "1e-3")

  def fmt(d: Double): String = f"$d%.2f"

  private def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    println(s"\n=== $title ===")
    println(header.mkString("| ", " | ", " |"))
    println(header.map(_ => "---").mkString("| ", " | ", " |"))
    rows.foreach(r => println(r.mkString("| ", " | ", " |")))
  }

  // ---- Table 1: dataset characteristics ----

  final case class DatasetRow(name: String, sizeMb: Double, positions: Long, trips: Long, ships: Long)

  private val paper1 = Map( // name -> (type, size MB, positions, trips, ships)
    "DAN"  -> ("Passenger", 786.0, 4384003L, 1292L, 16L),
    "KIEL" -> ("Passenger", 145.0, 806498L, 86L, 2L),
    "SAR"  -> ("All", 141.0, 1171162L, 20778L, 2579L))

  /** Size, cleaned positions, trips and ships of each dataset, in order. */
  def table1(sets: Seq[Prepared]): Seq[DatasetRow] = sets.map { p =>
    DatasetRow(p.name, p.rawSizeMb, p.cleaned.count(),
      p.trips.select("trip_id").distinct().count(),
      p.trips.select("vessel_id").distinct().count())
  }

  def printTable1(rows: Seq[DatasetRow]): Unit =
    printTable("Table 1: AIS dataset characteristics (ours vs paper)",
      Seq("Dataset", "Type", "Size MB", "Positions", "Trips", "Ships",
          "paper MB", "paper Pos", "paper Trips", "paper Ships"),
      rows.map { r =>
        val (ptype, pmb, ppos, ptrips, pships) = paper1(r.name)
        Seq(r.name, ptype, fmt(r.sizeMb), r.positions.toString, r.trips.toString, r.ships.toString,
            fmt(pmb), ppos.toString, ptrips.toString, pships.toString)
      })

  // ---- Table 2: framework storage size ----

  final case class StorageRow(method: String, config: String, kielMb: Double, sarMb: Double)

  private val paper2 = Map( // (method, config) -> (KIEL MB, SAR MB)
    ("HABIT", "r = 6") -> (0.06, 0.22), ("HABIT", "r = 7") -> (0.29, 0.59),
    ("HABIT", "r = 8") -> (1.54, 2.96), ("HABIT", "r = 9") -> (8.20, 18.03),
    ("HABIT", "r = 10") -> (37.28, 57.40),
    ("GTI", "rd = 1e-4") -> (50.24, 115.19), ("GTI", "rd = 5e-4") -> (369.41, 3541.89),
    ("GTI", "rd = 1e-3") -> (1428.77, 4844.12))

  /** HABIT r = 6..10, then GTI rm = 500 m at rd = 1e-4, 5e-4, 1e-3, each
    * built on the training split of KIEL and of SAR.
    */
  def table2(kiel: Prepared, sar: Prepared): Seq[StorageRow] = {
    val habit = (6 to 10).map { r =>
      StorageRow("HABIT", s"r = $r",
        MotionGraph.build(kiel.trainDf, r).serializedSizeBytes / 1e6,
        MotionGraph.build(sar.trainDf, r).serializedSizeBytes / 1e6)
    }
    val gti = Seq(1e-4, 5e-4, 1e-3).map { rd =>
      StorageRow("GTI", s"rd = ${RdLabel(rd)}",
        GTI.build(kiel.gtiPaths, rmM = 500, rdDeg = rd).serializedSizeBytes / 1e6,
        GTI.build(sar.gtiPaths, rmM = 500, rdDeg = rd).serializedSizeBytes / 1e6)
    }
    habit ++ gti
  }

  def printTable2(rows: Seq[StorageRow]): Unit =
    printTable("Table 2: framework storage size (MB), ours vs paper",
      Seq("Method", "Config", "KIEL", "SAR", "paper KIEL", "paper SAR"),
      rows.map { r =>
        val (pk, ps) = paper2((r.method, r.config))
        Seq(r.method, r.config, fmt(r.kielMb), fmt(r.sarMb), pk.toString, ps.toString)
      })

  // ---- Table 3: effect of simplification ----

  /** Mean [[Geo.turnStats]] over one set of paths, labelled by (r, t). */
  final case class TurnRow(r: String, t: String, cnt: Double, avgRot: Double, maxRot: Double, over45: Double)

  /** Table 3 over `gaps` DAN gaps: the imputed rows grouped by resolution
    * (r = 9, 10) in increasing tolerance, and the withheld originals.
    */
  final case class Table3(gaps: Int, byRes: Seq[Seq[TurnRow]], original: TurnRow) {
    def rows: Seq[TurnRow] = byRes.flatten :+ original
  }

  private val paper3 = Map( // (r, t) -> (cnt, avgRot, maxRot, over45)
    ("9", "0")     -> (96.35, 30.79, 112.71, 34.13),
    ("9", "100")   -> (51.76, 54.92, 112.31, 33.78),
    ("9", "250")   -> (35.32, 57.61, 109.96, 23.75),
    ("9", "500")   -> (14.57, 44.89, 84.03, 6.11),
    ("9", "1000")  -> (6.93, 34.32, 56.05, 1.64),
    ("10", "0")    -> (198.31, 30.64, 119.07, 62.37),
    ("10", "100")  -> (71.96, 48.53, 116.93, 35.26),
    ("10", "250")  -> (21.03, 33.85, 77.01, 4.43),
    ("10", "500")  -> (8.62, 24.70, 43.31, 0.60),
    ("10", "1000") -> (4.67, 19.85, 27.38, 0.09),
    ("Original", "-") -> (595.63, 6.55, 110.79, 33.84))

  private def meanTurns(r: String, t: String, paths: Seq[Seq[LatLng]]): TurnRow = {
    val stats = paths.map(Geo.turnStats)
    def mean(f: Geo.TurnStats => Double): Double = stats.map(f).sum / stats.size
    TurnRow(r, t, mean(_.cnt.toDouble), mean(_.avgRot), mean(_.maxRot), mean(_.over45.toDouble))
  }

  /** HABIT at r in {9, 10} and t in {0, 100, 250, 500, 1000} m on DAN's
    * 60-minute gaps, plus the withheld original sub-trajectories.
    */
  def table3(dan: Prepared): Table3 = {
    val gaps = dan.gaps(GapSec)
    val byRes = Seq(9, 10).map { r =>
      val graph = MotionGraph.build(dan.trainDf, r)
      Seq(0, 100, 250, 500, 1000).map { t =>
        val habit = new Habit(graph, HabitConfig(res = r, toleranceM = t))
        meanTurns(r.toString, t.toString, gaps.map(g => habit.impute(g.from, g.to)))
      }
    }
    Table3(gaps.size, byRes, meanTurns("Original", "-", gaps.map(_.truth)))
  }

  def printTable3(table: Table3): Unit =
    printTable("Table 3: simplification effect on imputed paths [DAN], ours vs paper",
      Seq("r", "t", "cnt", "Avg rot", "Max rot", ">45", "p.cnt", "p.avg", "p.max", "p.>45"),
      table.rows.map { row =>
        val (pc, pa, pm, po) = paper3((row.r, row.t))
        Seq(row.r, row.t, fmt(row.cnt), fmt(row.avgRot), fmt(row.maxRot), fmt(row.over45),
            pc.toString, pa.toString, pm.toString, po.toString)
      })

  // ---- Table 4: query latency (and the Figure 5 accuracy comparison) ----

  final case class LatencyRow(method: String, config: String, res: EvalResult)

  /** Table 4 rows of one dataset, all over the same `gaps` 60-minute gaps. */
  final case class Table4(dataset: String, gaps: Int,
                          habit: Seq[LatencyRow], gti: Seq[LatencyRow], sli: LatencyRow) {
    def rows: Seq[LatencyRow] = habit ++ gti :+ sli
  }

  private val paper4 = Map( // (dataset, method, config) -> (avg s, max s)
    ("KIEL", "HABIT", "r=9 t=100")       -> (0.024, 0.041),
    ("KIEL", "HABIT", "r=9 t=250")       -> (0.019, 0.047),
    ("KIEL", "HABIT", "r=10 t=100")      -> (0.071, 0.121),
    ("KIEL", "HABIT", "r=10 t=250")      -> (0.070, 0.128),
    ("KIEL", "GTI", "rm=250 rd=1e-4")    -> (0.261, 0.281),
    ("KIEL", "GTI", "rm=250 rd=5e-4")    -> (0.300, 0.431),
    ("KIEL", "GTI", "rm=250 rd=1e-3")    -> (0.402, 0.931),
    ("SAR", "HABIT", "r=9 t=100")        -> (0.032, 0.202),
    ("SAR", "HABIT", "r=9 t=250")        -> (0.031, 0.186),
    ("SAR", "HABIT", "r=10 t=100")       -> (0.139, 0.963),
    ("SAR", "HABIT", "r=10 t=250")       -> (0.139, 0.866),
    ("SAR", "GTI", "rm=250 rd=1e-4")     -> (0.492, 0.550),
    ("SAR", "GTI", "rm=250 rd=5e-4")     -> (0.711, 1.598),
    ("SAR", "GTI", "rm=500 rd=1e-3")     -> (1.216, 5.185))

  /** Latency of a method over `gaps`, timed after one untimed pass that
    * lets the JIT compile it.
    */
  private def warmEvaluate(method: (LatLng, LatLng) => Seq[LatLng], gaps: Seq[Gap]): EvalResult = {
    GapHarness.evaluate(method, gaps)
    GapHarness.evaluate(method, gaps)
  }

  /** Per dataset: HABIT (r, t) in {9, 10} x {100, 250}, three GTI (rm, rd)
    * configurations and SLI, all imputing the same 60-minute gaps.
    */
  def table4(sets: Seq[Prepared]): Seq[Table4] = sets.map { p =>
    val gaps   = p.gaps(GapSec)
    val graphs = Seq(9, 10).map(r => r -> MotionGraph.build(p.trainDf, r)).toMap
    val habit = for ((r, t) <- Seq((9, 100), (9, 250), (10, 100), (10, 250))) yield {
      val h = new Habit(graphs(r), HabitConfig(res = r, toleranceM = t))
      LatencyRow("HABIT", s"r=$r t=$t", warmEvaluate(h.impute, gaps))
    }
    val paths = p.gtiPaths
    val gtiConfigs =
      if (p.name == "KIEL") Seq((250.0, 1e-4), (250.0, 5e-4), (250.0, 1e-3))
      else Seq((250.0, 1e-4), (250.0, 5e-4), (500.0, 1e-3))
    val gti = for ((rm, rd) <- gtiConfigs) yield {
      val g = GTI.build(paths, rmM = rm, rdDeg = rd)
      LatencyRow("GTI", s"rm=${rm.toInt} rd=${RdLabel(rd)}", warmEvaluate(g.impute, gaps))
    }
    Table4(p.name, gaps.size, habit, gti, LatencyRow("SLI", "-", GapHarness.evaluate(SLI.impute, gaps)))
  }

  def printTable4(tables: Seq[Table4]): Unit = {
    printTable("Table 4: query latency (s) + DTW accuracy, ours vs paper",
      Seq("Dataset", "Method", "Config", "Avg s", "Max s", "meanDTW m", "medDTW m",
          "paper Avg", "paper Max"),
      for (t <- tables; row <- t.rows) yield {
        val res = row.res
        val paper = paper4.get((t.dataset, row.method, row.config))
        Seq(t.dataset, row.method, row.config, f"${res.avgLatency}%.4f", f"${res.maxLatency}%.4f",
            fmt(res.meanDtw), fmt(res.medianDtw),
            paper.fold("-")(_._1.toString), paper.fold("-")(_._2.toString))
      })
    tables.foreach(t => println(s"${t.dataset} gaps: ${t.gaps}"))
  }
}
