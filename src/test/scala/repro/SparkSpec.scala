package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Prep

/** Base for every test: one local-mode SparkSession for the whole run,
  * built by [[repro.exp.Prep.session]] like the jobs' (HexGrid UDFs
  * registered).
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** The physical plan of `df` as planned before it runs: under adaptive
    * execution, the initial plan, with every exchange the planner inserted.
    */
  def plannedPlan(df: DataFrame): SparkPlan = df.queryExecution.executedPlan match {
    case a: AdaptiveSparkPlanExec => a.initialPlan
    case p                        => p
  }

  /** Shuffle exchanges in `plan`; cached inputs count as already laid out. */
  def shuffles(plan: SparkPlan): Seq[ShuffleExchangeExec] =
    plan.collect { case e: ShuffleExchangeExec => e }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = Prep.session("repro")
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
