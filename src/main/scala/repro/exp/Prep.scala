package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}
import repro.eval.{Gap, GapHarness, TimedPoint}
import repro.h3.HexGrid
import repro.preprocess.{Cleaner, TripSegmenter}

/** Shared experiment preparation used by [[Tables]], the tests and the
  * benchmark: dataset generation → cleaning → segmentation → 70/30 split →
  * gap extraction, all deterministic.
  */
object Prep {

  /** A dataset prepared for evaluation. */
  final case class Prepared(name: String, raw: DataFrame, cleaned: DataFrame, trips: DataFrame) {
    lazy val collected: Map[Long, IndexedSeq[TimedPoint]] = GapHarness.collectTrips(trips)
    lazy val split: (Set[Long], Set[Long])                = GapHarness.split(collected.keys.toSeq)
    def trainIds: Set[Long] = split._1
    def testIds: Set[Long]  = split._2
    lazy val trainDf: DataFrame =
      trips.filter(F.col("trip_id").isin(trainIds.toSeq: _*)).cache()
    def gaps(gapSec: Long, seed: Long = 7): IndexedSeq[Gap] =
      GapHarness.gapsFor(collected, testIds, gapSec, seed)
    /** GTI training input: ordered point paths of the training trips. */
    def gtiPaths: Seq[IndexedSeq[repro.geo.LatLng]] =
      GapHarness.trainPaths(collected, trainIds)
    /** Raw size in MB, estimated as the CSV footprint of the raw feed. */
    lazy val rawSizeMb: Double = {
      val bytes = raw.select(F.sum(F.length(F.concat_ws(",",
        raw.columns.map(F.col).toIndexedSeq: _*)) + F.lit(1L))).collect()(0).getLong(0)
      bytes / 1e6
    }
  }

  def prepare(name: String, raw: DataFrame): Prepared = {
    val cleaned = Cleaner.clean(raw).cache()
    val trips   = TripSegmenter.segment(cleaned).cache()
    Prepared(name, raw, cleaned, trips)
  }

  /** Bench-scale analogues of the paper's three datasets (Table 1 sizes
    * scaled ~10–20x down; see EXPERIMENTS.md).
    */
  def dan(spark: SparkSession, nTrips: Int = 160): Prepared =
    prepare("DAN", repro.ais.Datasets.dan(spark, nTrips).cache())
  def kiel(spark: SparkSession, nTrips: Int = 60): Prepared =
    prepare("KIEL", repro.ais.Datasets.kiel(spark, nTrips).cache())
  def sar(spark: SparkSession, nTrips: Int = 400, nShips: Int = 120): Prepared =
    prepare("SAR", repro.ais.Datasets.sar(spark, nTrips, nShips).cache())

  /** The SparkSession of the jobs (spark-submit or sbt runMain) and the
    * tests, with the HexGrid UDFs registered.
    */
  def session(app: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    HexGrid.registerUdfs(s)
    s
  }
}
