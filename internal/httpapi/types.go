// Package httpapi defines the JSON wire types of the hiperbotd
// tuning service, shared by the server (internal/server) and the
// typed Go client (client). Keeping one definition per message on
// both sides of the wire makes protocol drift a compile error.
//
// Configurations travel as name→label maps (see space.Labels): level
// labels for discrete parameters, decimal renderings for continuous
// ones — the same schema the Recorder journals use.
package httpapi

import (
	"encoding/json"
	"strings"
)

// SessionOptions is the JSON-serializable subset of core.Options plus
// the surrogate hyperparameters. Zero fields take the paper defaults
// (20 initial samples, α = 0.20, ranking on finite spaces).
// server.TunerOptions is the one mapping from these fields to
// core.Options, and so defines what each field means.
type SessionOptions struct {
	// InitialSamples seeds the history with uniform random draws.
	InitialSamples int `json:"initial_samples,omitempty"`
	// Seed drives all pseudo-randomness of the session.
	Seed uint64 `json:"seed,omitempty"`
	// Strategy names the engine driving the session's selection: any
	// name registered with the daemon's core engine registry —
	// "ranking", "proposal", "sampling", "grouped", "random", "gp",
	// "motpe" and "geist" in the stock hiperbotd binary. "" picks
	// automatically: "motpe" with two or more objectives, otherwise
	// "ranking" on finite spaces, "sampling" on discrete grids past
	// 2^20 points, and "proposal" on spaces with continuous
	// parameters. Unknown names fail session creation with 400.
	Strategy string `json:"strategy,omitempty"`
	// ProposalCandidates is a deprecated alias of CandidateSamples,
	// used when candidate_samples is 0. Negative values, and values
	// above 2^20, fail session creation with 400.
	ProposalCandidates int `json:"proposal_candidates,omitempty"`
	// PoolCap bounds the sampled candidate pool on spaces too large
	// to enumerate: 0 uses the server default, > 0 caps the pool, < 0
	// disables large-space mode (oversized spaces then fail creation
	// with 400 for pool-backed strategies). A cap above 2^20, the
	// enumerate limit, fails session creation with 400. See
	// core.Options.PoolCap.
	PoolCap int `json:"pool_cap,omitempty"`
	// CandidateSamples is the good-density draw count per pick of the
	// pool-free TPE engines ("proposal", "sampling", "grouped", and
	// "motpe" without a pool). 0 keeps the engine's own count: 100 for
	// proposal and motpe, 1 024 otherwise. Negative values, and values
	// above 2^20, fail session creation with 400.
	CandidateSamples int `json:"candidate_samples,omitempty"`
	// Quantile is α, the good fraction of the history.
	Quantile float64 `json:"quantile,omitempty"`
	// Smoothing is the Laplace pseudo-count for discrete histograms.
	Smoothing float64 `json:"smoothing,omitempty"`
	// Bandwidth is the KDE bandwidth (<= 0 selects Scott's rule).
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Bins discretizes continuous densities for importance analysis
	// (0 = 20). Values above 1 024 fail session creation with 400.
	Bins int `json:"bins,omitempty"`
	// Objectives names the session's objectives, each a registered
	// objective name ("p95_latency_ms", "cost", ...) or a weighted-sum
	// spec ("0.7*p95_latency_ms+0.3*cost"). Empty keeps the legacy
	// single-objective behavior (minimize Result.Value). With two or
	// more entries the session tracks a Pareto front and the default
	// strategy becomes "motpe"; scalar engines optimize the equal-
	// weight scalarization of the canonical (all-minimize) vector.
	Objectives []string `json:"objectives,omitempty"`
	// Liar selects the constant-liar fantasy value assigned to leased
	// candidates while their results are outstanding: "min"
	// (optimistic, most exploratory batches), "mean", or "max"
	// (pessimistic). Empty uses the server default (mean). Unknown
	// values fail session creation with 400.
	Liar string `json:"liar,omitempty"`
	// Groups partitions the parameter space for the "grouped" strategy:
	// each inner slice names the parameters of one group (the -groups
	// flag syntax "a,b;c,d" parsed by core.ParseGroups). Parameters not
	// mentioned become singleton groups. Empty lets the grouped engine
	// auto-propose groups from importance and pairwise interactions;
	// unknown or repeated names fail session creation with 400. Ignored
	// by other strategies.
	Groups [][]string `json:"groups,omitempty"`
}

// SplitList parses a comma-separated flag value, such as objective
// specs or peer URLs, into its trimmed non-empty items; nil when there
// are none.
func SplitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// CreateSessionRequest creates a named tuning session.
type CreateSessionRequest struct {
	// Name optionally fixes the session id ([A-Za-z0-9._-]); empty
	// lets the server generate one.
	Name string `json:"name,omitempty"`
	// Space is the parameter space in Space.MarshalJSON form. Note
	// that constraints are not serializable: the server tunes the
	// unconstrained space (see hiperbot.LoadSpace).
	Space json.RawMessage `json:"space"`
	// Options configures the tuner.
	Options SessionOptions `json:"options"`
}

// CreateSessionResponse acknowledges session creation.
type CreateSessionResponse struct {
	ID string `json:"id"`
}

// Result pairs a configuration with its measured objective value
// (lower is better) and, optionally, named metrics for multi-metric
// sessions. When Metrics is present it must contain every metric the
// session's objectives read; when absent every objective falls back
// to Value (legacy single-metric clients keep working unchanged).
type Result struct {
	Config  map[string]string  `json:"config"`
	Value   float64            `json:"value"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// SuggestRequest leases candidates to evaluate.
type SuggestRequest struct {
	// Count is the number of candidates wanted (default 1).
	Count int `json:"count,omitempty"`
	// LeaseSeconds bounds how long the candidates stay reserved for
	// this caller before crashed workers forfeit them (default: the
	// server's -lease flag). Negative values request a forever lease
	// and are rejected with 400 when the server enforces a finite
	// default (-lease > 0): an immortal lease on a crashed worker
	// would strand its candidates for the daemon's lifetime.
	LeaseSeconds float64 `json:"lease_seconds,omitempty"`
}

// SuggestResponse returns the leased candidates.
type SuggestResponse struct {
	// Candidates holds up to Count configurations; fewer (or none)
	// when the unevaluated pool net of live leases is smaller.
	Candidates []map[string]string `json:"candidates"`
	// Phase is "initial" while the session collects random samples,
	// then "model" once selection is surrogate-guided.
	Phase string `json:"phase"`
	// Exhausted reports that no unleased, unevaluated configurations
	// remain.
	Exhausted bool `json:"exhausted,omitempty"`
}

// RenewRequest extends the leases this caller already holds. Configs
// not leased anymore (expired and possibly re-suggested to another
// worker) come back in RenewResponse.Lost so the worker can abandon
// their evaluations instead of racing the new holder.
type RenewRequest struct {
	// Configs are the held candidates to renew, as returned by suggest.
	Configs []map[string]string `json:"configs"`
	// LeaseSeconds is the fresh lease duration measured from now
	// (default: the server's -lease flag; negative follows the same
	// rejection rule as SuggestRequest.LeaseSeconds).
	LeaseSeconds float64 `json:"lease_seconds,omitempty"`
}

// RenewResponse reports which leases were extended.
type RenewResponse struct {
	// Renewed counts the configs whose leases were extended.
	Renewed int `json:"renewed"`
	// Lost lists the configs no longer leased — their leases expired
	// and the candidates returned to the pool (they may already be
	// leased to another worker).
	Lost []map[string]string `json:"lost,omitempty"`
}

// ObserveRequest reports evaluated results. Reporting a configuration
// that is already in the history is idempotent (counted in
// Duplicates, not an error), so workers may retry safely.
type ObserveRequest struct {
	Results []Result `json:"results"`
}

// ObserveResponse acknowledges folded-in results.
type ObserveResponse struct {
	Added       int     `json:"added"`
	Duplicates  int     `json:"duplicates"`
	Evaluations int     `json:"evaluations"`
	Best        *Result `json:"best,omitempty"`
	// ParetoFront is the current nondominated set of a multi-objective
	// session (absent on single-objective sessions, where Best is the
	// whole answer).
	ParetoFront []Result `json:"pareto_front,omitempty"`
}

// ImportanceEntry is one parameter's Jensen-Shannon importance score.
type ImportanceEntry struct {
	Param string  `json:"param"`
	Score float64 `json:"score"`
}

// MarginalLevel is the surrogate's belief about one discrete level:
// the good/bad probability masses and their ratio.
type MarginalLevel struct {
	Label string  `json:"label"`
	Good  float64 `json:"good"`
	Bad   float64 `json:"bad"`
	// Lift is Good/Bad: values above 1 mark levels the model
	// associates with good configurations.
	Lift float64 `json:"lift"`
}

// MarginalReport summarizes one parameter's fitted densities, the
// wire form of core.MarginalReport.
type MarginalReport struct {
	Param string `json:"param"`
	// Importance is the Jensen-Shannon divergence between the good and
	// bad marginal densities (paper eq. 13).
	Importance float64 `json:"importance"`
	// Levels holds per-level beliefs for discrete parameters, sorted by
	// descending lift; empty for continuous parameters.
	Levels []MarginalLevel `json:"levels,omitempty"`
	// GoodPeak is, for continuous parameters, the grid point where the
	// good density peaks.
	GoodPeak float64 `json:"good_peak,omitempty"`
}

// ImportanceResponse is the GET /v1/sessions/{id}/importance payload:
// per-parameter marginal reports sorted by descending importance.
// Available only once the session has fitted a surrogate (enough
// evaluations to leave the initial phase); 409 before that.
type ImportanceResponse struct {
	ID          string           `json:"id"`
	Evaluations int              `json:"evaluations"`
	Marginals   []MarginalReport `json:"marginals"`
}

// SessionInfo describes one session's progress.
type SessionInfo struct {
	ID             string `json:"id"`
	Evaluations    int    `json:"evaluations"`
	InitialSamples int    `json:"initial_samples"`
	Phase          string `json:"phase"`
	Strategy       string `json:"strategy"`
	ActiveLeases   int    `json:"active_leases"`
	// DuplicateSuggestions counts candidates handed out more than once
	// over the session's lifetime — always via lease expiry (a crashed
	// or stalled worker forfeited the candidate and it was re-issued),
	// never while a lease is live. A high count means workers outlive
	// their leases: raise lease_seconds or renew mid-evaluation.
	DuplicateSuggestions int64             `json:"duplicate_suggestions,omitempty"`
	Best                 *Result           `json:"best,omitempty"`
	Importance           []ImportanceEntry `json:"importance,omitempty"`
	// PoolExhaustedRetries is 1 when the session's sampled pool, drawn
	// once at create, hit its rejection-sampling retry bound and came
	// out smaller than the cap — a sign the space constraint rejects
	// almost everything — and 0 otherwise, including on sessions
	// without a sampled pool.
	PoolExhaustedRetries int64  `json:"pool_exhausted_retries,omitempty"`
	CreatedAt            string `json:"created_at,omitempty"`
	// SnapshotEvents counts the observations compacted into the
	// session's on-disk snapshot; zero means the session has never been
	// compacted and its journal holds the full history.
	SnapshotEvents int `json:"snapshot_events,omitempty"`
	// SnapshotBytes is the snapshot file's size on disk.
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// SnapshotAgeSeconds is how long ago the snapshot was written.
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds,omitempty"`
	// JournalTailEvents counts the observations living only in the
	// journal tail — what a restart would replay after loading the
	// snapshot.
	JournalTailEvents int `json:"journal_tail_events,omitempty"`
	// Evicted reports that the session is compacted out of memory
	// (under -max-live-sessions pressure); any suggest/observe/status
	// call rehydrates it transparently. Listing shows the info
	// published at eviction time.
	Evicted bool `json:"evicted,omitempty"`
	// Objectives echoes the session's objective specs (empty on
	// legacy single-objective sessions).
	Objectives []string `json:"objectives,omitempty"`
	// ParetoFront is the current nondominated set of a multi-objective
	// session, in history order.
	ParetoFront []Result `json:"pareto_front,omitempty"`
}

// SessionListResponse lists all live sessions. On a clustered daemon
// the default listing fans out to every peer and merges
// (GET /v1/sessions?scope=local lists only this node's sessions);
// peers that did not answer are named in UnreachablePeers, so a
// partial inventory is always labeled as such.
type SessionListResponse struct {
	Sessions []SessionInfo `json:"sessions"`
	// UnreachablePeers lists peer URLs whose sessions are missing from
	// a fanned-out listing because the peer could not be reached.
	UnreachablePeers []string `json:"unreachable_peers,omitempty"`
}

// HealthResponse is the /healthz payload. Status is "ok", or
// "degraded" when any session's journal writes are failing (the
// daemon keeps serving, but new evaluations on those sessions are no
// longer durable; JournalErrors lists them as "id: error"). On a
// clustered daemon, Cluster reports this node's view of its peers;
// /healthz?scope=local skips the peer probes (it is also what nodes
// use to probe each other, so probes never cascade).
type HealthResponse struct {
	Status        string   `json:"status"`
	Sessions      int      `json:"sessions"`
	JournalErrors []string `json:"journal_errors,omitempty"`
	// Cluster is present only on daemons running in cluster mode.
	Cluster *ClusterHealth `json:"cluster,omitempty"`
}

// PeerStatus is one peer's reachability as seen from this node.
type PeerStatus struct {
	// URL is the peer's normalized base URL on the ring.
	URL string `json:"url"`
	// Reachable reports whether the last probe of the peer's
	// /healthz?scope=local answered 200 within the probe timeout.
	Reachable bool `json:"reachable"`
	// Status echoes the peer's own health status ("ok"/"degraded")
	// when reachable.
	Status string `json:"status,omitempty"`
	// Sessions is the peer's session count when reachable.
	Sessions int `json:"sessions,omitempty"`
	// Error describes the probe failure when unreachable.
	Error string `json:"error,omitempty"`
}

// ClusterHealth is the cluster section of /healthz.
type ClusterHealth struct {
	// Self is this node's normalized base URL on the ring.
	Self string `json:"self"`
	// Nodes is the ring size (peers + self).
	Nodes int `json:"nodes"`
	// Peers lists the other nodes' reachability, sorted by URL.
	Peers []PeerStatus `json:"peers"`
}

// ClusterMetrics is the cluster section of /metrics.
type ClusterMetrics struct {
	Self string `json:"self"`
	// Peers lists the other nodes' reachability (cached briefly, so
	// scraping /metrics does not probe the cluster on every request).
	Peers []PeerStatus `json:"peers"`
	// OwnedSessions counts this node's locally-stored sessions by the
	// ring owner they hash to. In a healthy static cluster every local
	// session hashes to self; counts against other URLs mean the peer
	// list changed under existing data (sessions stranded off their
	// owner — see MisplacedSessions).
	OwnedSessions map[string]int `json:"owned_sessions"`
	// MisplacedSessions is the number of local sessions whose ring
	// owner is not this node.
	MisplacedSessions int `json:"misplaced_sessions"`
	// ForwardedRequests counts session requests this node forwarded to
	// their owner.
	ForwardedRequests int64 `json:"forwarded_requests"`
	// ForwardErrors counts forwards that failed at the transport layer
	// (owner unreachable): the request was answered 502.
	ForwardErrors int64 `json:"forward_errors"`
	// HopRejects counts already-forwarded requests that arrived at a
	// node that still does not own the session — a ring disagreement
	// between nodes; answered 508 instead of forwarding again.
	HopRejects int64 `json:"hop_rejects"`
}

// LatencySummary summarizes request latencies in milliseconds over a
// sliding window.
type LatencySummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// EndpointMetrics counts one endpoint's traffic.
type EndpointMetrics struct {
	Requests  int64           `json:"requests"`
	Errors    int64           `json:"errors"`
	LatencyMS *LatencySummary `json:"latency_ms,omitempty"`
}

// MetricsResponse is the /metrics payload.
type MetricsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Sessions counts every session the store knows, live or evicted.
	Sessions int `json:"sessions"`
	// LiveSessions counts sessions currently hydrated in memory; the
	// difference from Sessions is the evicted (snapshot-only) set.
	LiveSessions int   `json:"live_sessions"`
	Evaluations  int64 `json:"evaluations"`
	// EvictionsTotal counts sessions compacted out of memory under the
	// -max-live-sessions cap since the daemon started.
	EvictionsTotal int64 `json:"evictions_total"`
	// RehydrationsTotal counts evicted sessions rebuilt on demand from
	// snapshot + journal tail.
	RehydrationsTotal int64 `json:"rehydrations_total"`
	// SnapshotCompactionsTotal counts journal-to-snapshot compactions
	// (threshold-triggered and eviction-triggered).
	SnapshotCompactionsTotal int64 `json:"snapshot_compactions_total"`
	// PendingLeases is the live lease count summed over sessions — the
	// number of candidates currently out with workers.
	PendingLeases int `json:"pending_leases"`
	// DuplicateSuggestions sums SessionInfo.DuplicateSuggestions over
	// sessions: candidates re-issued after their lease expired.
	DuplicateSuggestions int64 `json:"duplicate_suggestions"`
	// PoolExhaustedRetries sums SessionInfo.PoolExhaustedRetries over
	// live sessions: the sessions whose one sampled-pool draw hit its
	// retry bound.
	PoolExhaustedRetries int64 `json:"pool_exhausted_retries"`
	// HeapAllocMB is the daemon's live heap in MiB at snapshot time —
	// the per-node memory column of multi-node experiments.
	HeapAllocMB float64                    `json:"heap_alloc_mb"`
	Endpoints   map[string]EndpointMetrics `json:"endpoints"`
	// Cluster is present only on daemons running in cluster mode.
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
}

// ErrorResponse carries a non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
