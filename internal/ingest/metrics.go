package ingest

import (
	"spatialsel/internal/obs"
)

// fsyncBuckets are the upper bounds (seconds) of the WAL fsync duration
// histogram. Group commit keeps fsyncs off the per-record path, so the
// interesting range is one device flush (sub-millisecond on NVMe, a few
// milliseconds on spinning disks) up to pathological stalls.
var fsyncBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}

// Ingest subsystem instruments. Created once at init; the hot path pays only
// atomic adds.
var (
	mBatches = obs.Default.Counter("sdbd_ingest_batches_total",
		"Mutation batches committed through the ingest path.")
	mRecords = map[string]*obs.Counter{
		"insert": obs.Default.Counter("sdbd_ingest_records_total", "Mutation records committed by operation.", obs.L("op", "insert")),
		"delete": obs.Default.Counter("sdbd_ingest_records_total", "Mutation records committed by operation.", obs.L("op", "delete")),
	}
	mWALFsync = obs.Default.Histogram("sdbd_ingest_wal_fsync_seconds",
		"WAL group-commit fsync duration.", fsyncBuckets)
	mRepacks = obs.Default.Counter("sdbd_ingest_repacks_total",
		"Background read-tree re-packs completed.")
	mRepackSeconds = obs.Default.FloatCounter("sdbd_ingest_repack_seconds_total",
		"Cumulative time spent re-packing read trees.")
	mWALRetry = map[string]*obs.Counter{
		"write":      obs.Default.Counter("sdbd_wal_retry_total", "WAL operation retries after transient failures, by operation.", obs.L("op", "write")),
		"sync":       obs.Default.Counter("sdbd_wal_retry_total", "WAL operation retries after transient failures, by operation.", obs.L("op", "sync")),
		"checkpoint": obs.Default.Counter("sdbd_wal_retry_total", "WAL operation retries after transient failures, by operation.", obs.L("op", "checkpoint")),
	}
	mWALDegraded = obs.Default.Counter("sdbd_wal_degraded_total",
		"Tables flipped to read-only degraded mode by persistent WAL failure.")
	mWALRecovered = obs.Default.Counter("sdbd_wal_recovered_total",
		"Tables re-armed for writes after a successful degraded-mode probe.")
)

// recordBatch flushes one committed batch's accounting.
func recordBatch(inserts, deletes int) {
	mBatches.Inc()
	if inserts > 0 {
		mRecords["insert"].Add(uint64(inserts))
	}
	if deletes > 0 {
		mRecords["delete"].Add(uint64(deletes))
	}
}
