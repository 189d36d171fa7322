// Package replica implements WAL-shipped read replicas: a tailer
// long-polls the primary's /wal/stream endpoint, replays the records
// into a follower catalog through the same recovery machinery crash
// replay uses, and serves Figure-4 queries with bounded staleness. The
// stream carries the primary's on-disk record frames verbatim, so every
// byte is covered by the log's per-record checksum: a torn response is
// detected (and silently re-requested from the cursor), a corrupted one
// is refused, and re-delivery after a reconnect deduplicates by
// sequence number.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/gridmeta/hybridcat/internal/catalog"
	"github.com/gridmeta/hybridcat/internal/retry"
	"github.com/gridmeta/hybridcat/internal/shard"
	"github.com/gridmeta/hybridcat/internal/wal"
	"github.com/gridmeta/hybridcat/internal/xmlschema"
)

// errGap marks a 409 from the stream: a checkpoint truncated records
// the replica still needs, so it must re-bootstrap from a snapshot.
var errGap = errors.New("replica: stream gap (primary checkpointed past cursor)")

// Options configures a replica.
type Options struct {
	// Primary is the primary server's base URL, e.g. "http://host:8080".
	Primary string
	// Schema must match the primary's (snapshots verify the signature).
	Schema *xmlschema.Schema
	// Catalog configures the follower catalog(s) the tailer builds; a
	// metrics registry here also receives the replica_* instruments.
	Catalog catalog.Options
	// Client performs the HTTP requests; nil uses http.DefaultClient.
	// Fault tests inject a faultio.FlakyTransport through it.
	Client *http.Client
	// Retry is the reconnect backoff policy; the zero value uses
	// retry.DefaultPolicy.
	Retry retry.Policy
	// PollWait is the long-poll window passed as ?wait_ms; 0 defaults
	// to 10s. Shorter values poll harder — tests use milliseconds.
	PollWait time.Duration
}

// Stats reports the tailer's counters.
type Stats struct {
	AppliedSeq uint64 `json:"applied_seq"`
	PrimarySeq uint64 `json:"primary_seq"`
	Polls      uint64 `json:"polls"`
	Records    uint64 `json:"records_applied"`
	Reconnects uint64 `json:"reconnects"`
	Bootstraps uint64 `json:"bootstraps"`
}

// Replica tails a primary into a live follower catalog, served as a
// one-shard cluster (Cluster): a re-bootstrap swaps the fresh follower
// into the cluster's slot. It satisfies service.ReplicaSource, so a
// service.Server over Cluster() reports its lag directly.
type Replica struct {
	opts   Options
	client *http.Client

	cl         *shard.Cluster
	primarySeq atomic.Uint64
	polls      atomic.Uint64
	records    atomic.Uint64
	reconnects atomic.Uint64
	bootstraps atomic.Uint64
}

// New builds a replica with an empty follower catalog; it serves (empty)
// reads immediately and converges once Run starts tailing. No network
// traffic happens here.
func New(opts Options) (*Replica, error) {
	if opts.Primary == "" {
		return nil, fmt.Errorf("replica: primary URL required")
	}
	if _, err := url.Parse(opts.Primary); err != nil {
		return nil, fmt.Errorf("replica: bad primary URL: %w", err)
	}
	if opts.PollWait <= 0 {
		opts.PollWait = 10 * time.Second
	}
	c, err := catalog.OpenFollower(opts.Schema, opts.Catalog)
	if err != nil {
		return nil, err
	}
	r := &Replica{opts: opts, client: opts.Client, cl: shard.Single(c)}
	if r.client == nil {
		r.client = http.DefaultClient
	}
	if reg := opts.Catalog.Metrics; reg != nil {
		reg.GaugeFunc("replica_applied_seq", func() int64 { return int64(r.AppliedSeq()) })
		reg.GaugeFunc("replica_lag_records", func() int64 {
			applied, primary := r.AppliedSeq(), r.PrimarySeq()
			if primary <= applied {
				return 0
			}
			return int64(primary - applied)
		})
	}
	return r, nil
}

// Cluster returns the one-shard cluster serving the follower's reads.
func (r *Replica) Cluster() *shard.Cluster { return r.cl }

// Catalog returns the follower catalog currently serving reads. A
// re-bootstrap swaps in a fresh catalog; callers must re-fetch per
// operation rather than caching the pointer.
func (r *Replica) Catalog() *catalog.Catalog { return r.cl.Shard(0) }

// AppliedSeq is the replication cursor: the last primary record whose
// effects local readers can see.
func (r *Replica) AppliedSeq() uint64 { return r.Catalog().AppliedSeq() }

// PrimarySeq is the primary's last observed log watermark.
func (r *Replica) PrimarySeq() uint64 { return r.primarySeq.Load() }

// Stats snapshots the tailer counters.
func (r *Replica) Stats() Stats {
	return Stats{
		AppliedSeq: r.AppliedSeq(),
		PrimarySeq: r.PrimarySeq(),
		Polls:      r.polls.Load(),
		Records:    r.records.Load(),
		Reconnects: r.reconnects.Load(),
		Bootstraps: r.bootstraps.Load(),
	}
}

// Run tails the primary until ctx cancels, which is the only way it
// returns. Transient failures — refused connections, torn responses,
// primary restarts — back off with the configured jittered policy and
// reconnect from the cursor; a stream gap re-bootstraps from a
// snapshot. The tailer never gives up: MaxAttempts in the policy is
// ignored here, since a replica's job is to outwait its primary's
// outages.
func (r *Replica) Run(ctx context.Context) error {
	p := r.opts.Retry
	p.MaxAttempts = 0
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := r.syncOnce(ctx)
		if err == nil {
			attempt = 0
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		if errors.Is(err, errGap) {
			// Bootstrap with its own retry budget; on success the cursor
			// jumps to the snapshot watermark and streaming resumes.
			if berr := r.bootstrap(ctx); berr == nil {
				attempt = 0
				continue
			} else if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		r.reconnects.Add(1)
		if serr := sleepCtx(ctx, p.Backoff(attempt)); serr != nil {
			return serr
		}
		attempt++
	}
}

// syncOnce performs one stream poll: request records above the cursor,
// decode whatever intact frames arrive, apply them. An empty poll (the
// long-poll window expired with no commits) is a success.
func (r *Replica) syncOnce(ctx context.Context) error {
	c := r.Catalog()
	from := c.AppliedSeq()
	u := fmt.Sprintf("%s/wal/stream?from=%d&wait_ms=%d",
		r.opts.Primary, from, r.opts.PollWait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	r.polls.Add(1)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return errGap
	default:
		return fmt.Errorf("replica: stream: primary answered %s", resp.Status)
	}
	if last, err := strconv.ParseUint(resp.Header.Get("X-WAL-Last-Seq"), 10, 64); err == nil {
		storeMax(&r.primarySeq, last)
	}
	// A torn connection surfaces as a short body; the frame decoder
	// drops the torn tail and the next poll re-requests it from the
	// cursor, so no error handling is needed for the read itself.
	body, err := io.ReadAll(resp.Body)
	if err != nil && len(body) == 0 {
		return err
	}
	recs, derr := wal.DecodeFrames(body)
	if len(recs) > 0 {
		if aerr := c.ApplyWAL(recs); aerr != nil {
			return aerr
		}
		r.records.Add(uint64(len(recs)))
		storeMax(&r.primarySeq, recs[len(recs)-1].Seq)
	}
	if derr != nil {
		// Interior corruption: the valid prefix is applied, the rest is
		// garbage — reconnect and re-request from the new cursor.
		return derr
	}
	return err
}

// bootstrap replaces the follower catalog with one restored from the
// primary's snapshot endpoint — the recovery path for a cursor the
// primary's checkpoints have truncated away. Retries under the
// configured policy; a torn snapshot download fails its checksum and
// retries like any other transient fault.
func (r *Replica) bootstrap(ctx context.Context) error {
	return retry.Do(ctx, r.opts.Retry, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opts.Primary+"/wal/snapshot", nil)
		if err != nil {
			return retry.Permanent(err)
		}
		resp, err := r.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("replica: snapshot: primary answered %s", resp.Status)
		}
		c, err := catalog.LoadFollower(r.opts.Schema, r.opts.Catalog, resp.Body)
		if err != nil {
			return err // torn/corrupt download: checksum catches it; retry
		}
		if err := r.cl.Replace(0, c); err != nil {
			return retry.Permanent(err)
		}
		r.bootstraps.Add(1)
		storeMax(&r.primarySeq, c.AppliedSeq())
		return nil
	})
}

// storeMax advances a to v if v is larger (monotonic watermark).
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// sleepCtx waits d or until ctx cancels.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
