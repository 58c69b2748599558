package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Habit, HabitConfig, MotionGraph}
import repro.eval.GapHarness
import repro.exp.Tables

/** Reproduces Table 4 — average and maximum imputation query latency (s)
  * for HABIT (r, t) and GTI (rm, rd) configurations over the same 60-min
  * gaps on KIEL and SAR. Also prints mean/median DTW per configuration,
  * covering the accuracy comparison of Figure 5 (HABIT comparable to GTI,
  * both far better than SLI on the confined KIEL route; HABIT stable on
  * the diverse SAR traffic).
  *
  * Reproduction target (shape): HABIT stays sub-second with latency
  * growing in r; GTI is consistently slower than HABIT and degrades on
  * SAR; maximum latencies spike for GTI's finer configurations.
  */
class Table4LatencyBench extends AnyFunSuite {
  import BenchData._

  test("Table 4: imputation query latency (and Figure 5 accuracy)") {
    val tables = Tables.table4(Seq(kiel, sar))
    tables.foreach(t => assert(t.gaps > 0, s"no eligible gaps on ${t.dataset}"))
    Tables.printTable4(tables)

    for (t <- tables) {
      val name     = t.dataset
      val habitAvg = t.habit.map(_.res.avgLatency)
      val gtiAvg   = t.gti.map(_.res.avgLatency)
      // HABIT sub-second on average; slower at finer resolution (r=10 > r=9).
      assert(habitAvg.forall(_ < 1.0), s"$name: HABIT not sub-second: $habitAvg")
      // Finer resolution means longer cell paths: r=10 should not be
      // substantially faster than r=9 at the same tolerance (warm-up done).
      assert(t.habit(3).res.avgLatency >= t.habit(1).res.avgLatency * 0.5,
        s"$name: r=10 unexpectedly much faster than r=9")
      // GTI is slower than HABIT's fastest configuration.
      assert(gtiAvg.min > habitAvg.min, s"$name: GTI ${gtiAvg.min} not slower than HABIT ${habitAvg.min}")
      // Figure 5 shape on KIEL: both model-based methods beat SLI.
      if (name == "KIEL") {
        val sliDtw = t.sli.res.meanDtw
        assert(t.habit.map(_.res.meanDtw).min < sliDtw, s"HABIT worse than SLI on KIEL")
        assert(t.gti.map(_.res.meanDtw).min < sliDtw, s"GTI worse than SLI on KIEL")
      }
    }
  }

  test("Figure 7 companion: HABIT accuracy degrades sub-linearly with gap size") {
    val p = kiel
    val graph = MotionGraph.build(p.trainDf, 9)
    val h = new Habit(graph, HabitConfig(res = 9, toleranceM = 100))
    val errs = Seq(3600L, 7200L, 14400L).map { d =>
      val gaps = p.gaps(d)
      if (gaps.isEmpty) Double.NaN else GapHarness.evaluate(h.impute, gaps).medianDtw
    }
    println(s"\nFigure 7 [KIEL, r=9 t=100] median DTW for 1h/2h/4h gaps: " +
      errs.map(e => if (e.isNaN) "n/a" else Tables.fmt(e)).mkString(" / "))
    val valid = errs.filterNot(_.isNaN)
    assert(valid.nonEmpty)
    // Median error for 4h gaps stays within ~6x of the 1h error — "the
    // increase in median error is not proportional to the gap length".
    if (!errs.head.isNaN && !errs.last.isNaN)
      assert(errs.last < math.max(200.0, errs.head * 8.0),
        s"4h error ${errs.last} blew up vs 1h ${errs.head}")
  }
}
