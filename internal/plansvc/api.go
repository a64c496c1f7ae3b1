package plansvc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"oooback/internal/datapar"
	"oooback/internal/gpusim"
	"oooback/internal/models"
	"oooback/internal/netsim"
	"oooback/internal/pipepar"
	"oooback/internal/plansearch"
)

// Plan modes: which of the paper's schedulers the request targets.
const (
	// ModeDataPar plans a data-parallel iteration: reverse first-k
	// (Algorithm 2) with the concave k search against the requested
	// synchronization method.
	ModeDataPar = "datapar"
	// ModePipeline plans a pipeline-parallel iteration: gradient
	// fast-forwarding plus modulo layer allocation (§5.2).
	ModePipeline = "pipeline"
	// ModeSingleGPU plans a single-GPU iteration: multi-region joint
	// scheduling of δW kernels onto the sub-stream (Algorithm 1).
	ModeSingleGPU = "singlegpu"
)

// PlanRequest is the body of POST /v1/plan.
type PlanRequest struct {
	// Model names a zoo model (see GET /v1/models). Exactly one of Model and
	// ModelSpec must be set.
	Model string `json:"model,omitempty"`
	// ModelSpec is an inline layer-cost profile in the models.WriteJSON
	// format, for callers that profiled their own network.
	ModelSpec json.RawMessage `json:"model_spec,omitempty"`

	// Cluster describes the hardware the plan targets.
	Cluster ClusterSpec `json:"cluster"`

	// Mode selects the scheduler (default ModeDataPar).
	Mode string `json:"mode,omitempty"`
	// Method is the data-parallel synchronization system (default
	// "ooo-byteps"): wfbp | horovod | p3 | byteps | ooo-byteps | ooo-horovod.
	Method string `json:"method,omitempty"`
	// Search selects the data-parallel schedule-search strategy (default
	// "guided"): exact (exhaustive sweep, the differential baseline) |
	// guided (predictor-ranked probing with an admissible-bound cutoff) |
	// robust (guided plus worst-case scoring under perturbed cost models).
	// Only valid in datapar mode.
	Search string `json:"search,omitempty"`
	// MaxMemoryBytes is the peak-memory budget in bytes (0 = unconstrained).
	// Under objective "time" it clamps reverse first-k to schedules whose
	// logical peak fits; under "memory" it is the hard budget the chosen
	// schedule's BFC-replayed fragmented peak must respect; under "pareto"
	// it selects the fastest frontier point that fits (0 = the time optimum).
	MaxMemoryBytes int64 `json:"max_memory_bytes,omitempty"`
	// Objective selects the data-parallel planning objective (default
	// "time"): time (minimize iteration time, the existing planner) |
	// memory (fastest schedule whose fragmented peak fits max_memory_bytes)
	// | pareto (sweep the joint throughput×memory frontier and return it).
	// Only valid in datapar mode.
	Objective string `json:"objective,omitempty"`

	// MicroBatches per mini-batch for pipeline mode (default 4).
	MicroBatches int `json:"micro_batches,omitempty"`
	// Discipline is the pipeline schedule (default "gpipe"):
	// gpipe | pipedream | dapple.
	Discipline string `json:"discipline,omitempty"`
	// GroupSize is the modulo-allocation group size in layers (default 1).
	GroupSize int `json:"group_size,omitempty"`

	// TimeoutMillis bounds the server-side planning time; on expiry the
	// request fails with code "deadline_exceeded" (default: server limit).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// ClusterSpec selects a preset cluster (Table 2) or describes a custom one.
type ClusterSpec struct {
	// Preset names a Table 2 cluster: priv-a | priv-b | pub-a. When set, the
	// other fields (except GPUs) default from the preset.
	Preset string `json:"preset,omitempty"`
	// GPUs is the worker count (data-parallel), pipeline depth (pipeline
	// mode); ignored in single-GPU mode.
	GPUs int `json:"gpus,omitempty"`
	// GPU is the device type: v100 | titanxp | p100.
	GPU string `json:"gpu,omitempty"`
	// GPUsPerNode is the number of GPUs sharing one NIC.
	GPUsPerNode int `json:"gpus_per_node,omitempty"`
	// Interconnect is the inter-node link:
	// ethernet-10g | ethernet-20g | ethernet-25g | nvlink | pcie3.
	Interconnect string `json:"interconnect,omitempty"`
	// IntraNode is the intra-node link (same vocabulary).
	IntraNode string `json:"intra_node,omitempty"`
}

// Search strategy names (the PlanRequest.Search vocabulary).
const (
	SearchExact  = "exact"
	SearchGuided = "guided"
	SearchRobust = "robust"
)

// Planning objective names (the PlanRequest.Objective vocabulary).
const (
	ObjectiveTime   = "time"
	ObjectiveMemory = "memory"
	ObjectivePareto = "pareto"
)

// PlanResponse is the body of a successful POST /v1/plan. It is a pure
// function of the normalized request — no timestamps, request ids or timing
// measurements — so cached, collapsed and freshly computed responses for one
// fingerprint are byte-identical (request-scoped facts travel in headers).
type PlanResponse struct {
	// Fingerprint is the canonical request fingerprint (the cache key).
	Fingerprint string `json:"fingerprint"`
	// Mode echoes the normalized planning mode.
	Mode string `json:"mode"`
	// Model summarizes the planned model.
	Model ModelSummary `json:"model"`

	// K is the chosen reverse first-k depth (data-parallel mode).
	K int `json:"k,omitempty"`
	// Allocation maps 0-based layer index to GPU (pipeline mode).
	Allocation []int `json:"allocation,omitempty"`
	// Regions lists the δW layer indices assigned to each main-stream region
	// by Algorithm 1 (single-GPU mode).
	Regions [][]int `json:"regions,omitempty"`
	// Overflow lists δW layers that spill past the last region (single-GPU).
	Overflow []int `json:"overflow,omitempty"`

	// Schedule is the optimized backward schedule ("dO50", "dW50", ...).
	Schedule []string `json:"schedule"`

	// IterTimeNs is the predicted iteration time under the plan.
	IterTimeNs int64 `json:"iter_time_ns"`
	// BaselineIterTimeNs is the predicted iteration time of the conventional
	// order under the same system configuration.
	BaselineIterTimeNs int64 `json:"baseline_iter_time_ns"`
	// Baseline names the comparison configuration.
	Baseline string `json:"baseline"`
	// Speedup is BaselineIterTimeNs / IterTimeNs.
	Speedup float64 `json:"speedup"`
	// ThroughputSPS is global samples/second under the plan.
	ThroughputSPS float64 `json:"throughput_sps"`

	// Search echoes the schedule-search strategy (data-parallel mode).
	Search string `json:"search,omitempty"`
	// SearchStats reports the search effort behind the plan (data-parallel
	// mode). Deterministic for a given normalized request, so it is safe in
	// the cached body.
	SearchStats *SearchStats `json:"search_stats,omitempty"`

	// Objective echoes the normalized planning objective (data-parallel
	// mode). When it is "memory" or the memory list schedule won, K is −1
	// and Memory.Scheduler names the winning scheduler family.
	Objective string `json:"objective,omitempty"`
	// Memory reports the chosen schedule's memory footprint (data-parallel
	// mode). Deterministic — the BFC replay is a pure function of the
	// schedule — so it is safe in the cached body.
	Memory *MemoryStats `json:"memory,omitempty"`
	// Pareto is the joint throughput×memory frontier in ascending iteration
	// time (objective=pareto only). The first point is the time optimum,
	// the last the memory optimum.
	Pareto []ParetoPoint `json:"pareto,omitempty"`
}

// MemoryStats reports a schedule's memory footprint: the logical live-byte
// peak and the fragmented peak from replaying the schedule's alloc/free
// trace through a BFC arena.
type MemoryStats struct {
	// PeakMemoryBytes is the headline number: the BFC-replayed fragmented
	// footprint high-water mark — the arena the schedule actually needs,
	// alignment and holes included.
	PeakMemoryBytes int64 `json:"peak_memory_bytes"`
	// LogicalPeakBytes is the plain live-byte high-water mark of the
	// replayed trace, which holds a δW's workspace together with the tensors
	// the op frees (see plansearch.MemStats); it is not graph.PeakMemory.
	LogicalPeakBytes int64 `json:"logical_peak_bytes"`
	// FragRatio is PeakMemoryBytes over the aligned in-use peak (≥ 1).
	FragRatio float64 `json:"frag_ratio"`
	// Scheduler names the winning schedule family: "reverse-first-k" or
	// "mem-list" (the LESCEA peak-memory list scheduler).
	Scheduler string `json:"scheduler,omitempty"`
	// BudgetBytes echoes the request's max_memory_bytes when one was set.
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
}

// ParetoPoint is one frontier point of an objective=pareto plan.
type ParetoPoint struct {
	// K is the reverse-first-k depth; −1 for the memory list schedule.
	K int `json:"k"`
	// MemSched marks the memory list schedule.
	MemSched bool `json:"mem_sched,omitempty"`
	// IterTimeNs is the point's simulated iteration time.
	IterTimeNs int64 `json:"iter_time_ns"`
	// PeakMemoryBytes is the point's BFC-replayed fragmented peak.
	PeakMemoryBytes int64 `json:"peak_memory_bytes"`
	// LogicalPeakBytes is the point's logical live-byte peak, from the
	// replayed trace as in MemoryStats.
	LogicalPeakBytes int64 `json:"logical_peak_bytes"`
	// FragRatio is the point's fragmentation ratio (≥ 1).
	FragRatio float64 `json:"frag_ratio"`
}

// SearchStats reports how a data-parallel plan's schedule search ran.
type SearchStats struct {
	// Probes is the number of exact simulator probes issued.
	Probes int `json:"probes"`
	// Exhaustive is the probe count an exhaustive sweep would have issued
	// (the candidate-space size).
	Exhaustive int `json:"exhaustive"`
	// Saved is Exhaustive − Probes: the candidates never simulated, because
	// guided search pruned them or, under objective=memory, they did not fit
	// the budget or their lower bound exceeded the optimum. Always 0 under
	// objective=pareto, which simulates every candidate.
	Saved int `json:"saved"`
	// CutoffProven reports that the admissible-bound cutoff certified the
	// optimum: guided search stopped on the bound, the memory search's bound
	// order proved every unsimulated candidate slower, or the sweep was
	// exhaustive.
	CutoffProven bool `json:"cutoff_proven"`
	// RankCorrelation is the predictor's Spearman rank correlation against
	// the measured makespans (1 for exhaustive sweeps).
	RankCorrelation float64 `json:"rank_correlation"`
	// RobustProbes counts the extra perturbed-cost simulations (robust only).
	RobustProbes int `json:"robust_probes,omitempty"`
	// WorstRegret is the chosen schedule's worst-case relative regret across
	// the perturbations (robust only).
	WorstRegret float64 `json:"worst_regret,omitempty"`
	// Alternatives lists the robust pool ordered by ascending worst-case
	// regret, the chosen schedule first (robust only).
	Alternatives []AltPlan `json:"alternatives,omitempty"`
}

// AltPlan is one robust-mode alternative schedule.
type AltPlan struct {
	K           int     `json:"k"`
	IterTimeNs  int64   `json:"iter_time_ns"`
	WorstRegret float64 `json:"worst_regret"`
}

// ModelSummary identifies the planned model in responses.
type ModelSummary struct {
	Name       string `json:"name"`
	Layers     int    `json:"layers"`
	Batch      int    `json:"batch"`
	ParamBytes int64  `json:"param_bytes"`
}

// Error codes of the typed error envelope.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeUnknownModel     = "unknown_model"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeOverloaded       = "overloaded"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeShuttingDown     = "shutting_down"
	CodeInternal         = "internal"
)

// APIError is the JSON error envelope every non-2xx response carries.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Field names the offending request field for invalid_request errors.
	Field string `json:"field,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s (%s): %s", e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

func invalidf(field, format string, args ...any) *APIError {
	return &APIError{Code: CodeInvalidRequest, Field: field, Message: fmt.Sprintf(format, args...)}
}

// profiles maps GPU names to cost profiles and gpusim configs.
var profiles = map[string]struct {
	prof models.GPUProfile
	cfg  gpusim.Config
}{
	"v100":    {models.V100Profile(), gpusim.V100()},
	"titanxp": {models.TitanXPProfile(), gpusim.TitanXP()},
	"p100":    {models.P100Profile(), gpusim.P100()},
}

// links maps interconnect names to link specs.
var links = map[string]netsim.LinkSpec{
	"ethernet-10g": netsim.Ethernet10G(),
	"ethernet-20g": netsim.Ethernet20G(),
	"ethernet-25g": netsim.Ethernet25G(),
	"nvlink":       netsim.NVLink(),
	"pcie3":        netsim.PCIe3x16(),
}

// presets maps Table 2 cluster names to their datapar configurations.
var presets = map[string]datapar.Cluster{
	"priv-a": datapar.PrivA(),
	"priv-b": datapar.PrivB(),
	"pub-a":  datapar.PubA(),
}

// dpMethods maps method names to datapar methods.
var dpMethods = map[string]datapar.Method{
	"wfbp":        datapar.WFBP,
	"horovod":     datapar.Horovod,
	"p3":          datapar.P3,
	"byteps":      datapar.BytePS,
	"ooo-byteps":  datapar.OOOBytePS,
	"ooo-horovod": datapar.OOOHorovod,
}

// disciplines maps pipeline discipline names to pipepar schedules.
var disciplines = map[string]pipepar.Schedule{
	"gpipe":     pipepar.GPipe,
	"pipedream": pipepar.PipeDream,
	"dapple":    pipepar.DAPPLE,
}

// planSpec is the normalized, resolved form of a PlanRequest: every default
// applied, every name canonicalized, the cluster expanded to concrete specs.
// Its canonical JSON encoding is the fingerprint input.
type planSpec struct {
	Mode string `json:"mode"`

	ModelName string `json:"model_name,omitempty"`
	// ModelDigest is the sha256 of the inline model spec (inline models
	// fingerprint by content, zoo models by name).
	ModelDigest string `json:"model_digest,omitempty"`

	GPU          string `json:"gpu"`
	GPUs         int    `json:"gpus"`
	GPUsPerNode  int    `json:"gpus_per_node"`
	Interconnect string `json:"interconnect"`
	IntraNode    string `json:"intra_node"`
	MaxGPUs      int    `json:"-"`

	Method string `json:"method,omitempty"`
	Search string `json:"search,omitempty"`
	// Objective is "" for the default time objective — the zero value keeps
	// pre-objective requests' fingerprints (and warm caches) stable —
	// "memory" or "pareto" otherwise.
	Objective      string `json:"objective,omitempty"`
	MaxMemoryBytes int64  `json:"max_memory_bytes,omitempty"`
	MicroBatches   int    `json:"micro_batches,omitempty"`
	Discipline     string `json:"discipline,omitempty"`
	GroupSize      int    `json:"group_size,omitempty"`

	// CostModel names the fitted cost table re-timing the zoo model (set by
	// the service when it was started with one; see Options.CostTable). It is
	// part of the fingerprint: plans against measured costs never collide
	// with plans against the hand-written defaults.
	CostModel string `json:"cost_model,omitempty"`

	// What-if perturbation, set only by the /v1/whatif planner on its scaled
	// inner spec (zero for plain plan requests, so their fingerprints are
	// unchanged). WhatIfScales records the layer-cost factors already applied
	// to the model; BwScale multiplies every link bandwidth at materialization.
	WhatIfScales map[string]float64 `json:"whatif_scales,omitempty"`
	BwScale      float64            `json:"bw_scale,omitempty"`

	// model is the resolved model (built from the zoo or decoded inline);
	// excluded from the fingerprint (ModelName/ModelDigest stand for it).
	model *models.Model
	// mem is model's footprint table (memTable).
	mem *plansearch.MemTable
	// retime is the fitted cost table applied to zoo models at resolution
	// time; excluded from the fingerprint (CostModel stands for it).
	retime *models.CostTable
	// deadlineMillis is the requested planning deadline; excluded from the
	// fingerprint (a deadline changes how long we wait, not the plan).
	deadlineMillis int64
}

// normalize validates req and resolves it into a planSpec. Validation errors
// are *APIError with code invalid_request or unknown_model.
func normalize(req *PlanRequest) (*planSpec, error) {
	sp := &planSpec{}

	sp.Mode = strings.ToLower(strings.TrimSpace(req.Mode))
	if sp.Mode == "" {
		sp.Mode = ModeDataPar
	}
	switch sp.Mode {
	case ModeDataPar, ModePipeline, ModeSingleGPU:
	default:
		return nil, invalidf("mode", "unknown mode %q (want %s, %s or %s)",
			req.Mode, ModeDataPar, ModePipeline, ModeSingleGPU)
	}

	// Cluster: start from the preset (if any), apply overrides.
	cs := req.Cluster
	preset := strings.ToLower(strings.TrimSpace(cs.Preset))
	var base datapar.Cluster
	if preset != "" {
		var ok bool
		base, ok = presets[preset]
		if !ok {
			return nil, invalidf("cluster.preset", "unknown preset %q (want priv-a, priv-b or pub-a)", cs.Preset)
		}
		sp.GPU = strings.ToLower(base.Profile.Name)
		sp.GPUsPerNode = base.PerNode
		sp.Interconnect = linkName(base.NIC)
		sp.IntraNode = linkName(base.Intra)
		sp.MaxGPUs = base.MaxGPUs
	} else {
		// Custom cluster defaults.
		sp.GPU = "v100"
		sp.GPUsPerNode = 1
		sp.Interconnect = "ethernet-10g"
		sp.IntraNode = "pcie3"
		sp.MaxGPUs = maxCustomGPUs
	}
	if cs.GPU != "" {
		sp.GPU = strings.ToLower(strings.TrimSpace(cs.GPU))
	}
	if _, ok := profiles[sp.GPU]; !ok {
		return nil, invalidf("cluster.gpu", "unknown GPU %q (want v100, titanxp or p100)", cs.GPU)
	}
	if cs.GPUsPerNode != 0 {
		if cs.GPUsPerNode < 1 {
			return nil, invalidf("cluster.gpus_per_node", "must be ≥ 1, got %d", cs.GPUsPerNode)
		}
		sp.GPUsPerNode = cs.GPUsPerNode
	}
	if cs.Interconnect != "" {
		sp.Interconnect = strings.ToLower(strings.TrimSpace(cs.Interconnect))
	}
	if _, ok := links[sp.Interconnect]; !ok {
		return nil, invalidf("cluster.interconnect", "unknown link %q", cs.Interconnect)
	}
	if cs.IntraNode != "" {
		sp.IntraNode = strings.ToLower(strings.TrimSpace(cs.IntraNode))
	}
	if _, ok := links[sp.IntraNode]; !ok {
		return nil, invalidf("cluster.intra_node", "unknown link %q", cs.IntraNode)
	}

	sp.GPUs = cs.GPUs
	if sp.Mode == ModeSingleGPU {
		sp.GPUs = 1
	} else {
		if sp.GPUs == 0 {
			sp.GPUs = defaultGPUs
		}
		if sp.GPUs < 1 {
			return nil, invalidf("cluster.gpus", "must be ≥ 1, got %d", cs.GPUs)
		}
		if sp.GPUs > sp.MaxGPUs {
			return nil, invalidf("cluster.gpus", "%d exceeds the cluster limit of %d GPUs", sp.GPUs, sp.MaxGPUs)
		}
	}

	// Mode-specific knobs.
	switch sp.Mode {
	case ModeDataPar:
		sp.Method = strings.ToLower(strings.TrimSpace(req.Method))
		if sp.Method == "" {
			sp.Method = "ooo-byteps"
		}
		if _, ok := dpMethods[sp.Method]; !ok {
			return nil, invalidf("method", "unknown method %q", req.Method)
		}
		if req.MaxMemoryBytes < 0 {
			return nil, invalidf("max_memory_bytes", "must be ≥ 0")
		}
		sp.MaxMemoryBytes = req.MaxMemoryBytes
		switch obj := strings.ToLower(strings.TrimSpace(req.Objective)); obj {
		case "", ObjectiveTime:
			// The default objective fingerprints as "" so pre-objective
			// requests keep their cache keys.
			sp.Objective = ""
		case ObjectiveMemory:
			if sp.MaxMemoryBytes <= 0 {
				return nil, invalidf("max_memory_bytes",
					"objective %q needs a positive max_memory_bytes budget", ObjectiveMemory)
			}
			sp.Objective = ObjectiveMemory
		case ObjectivePareto:
			sp.Objective = ObjectivePareto
		default:
			return nil, invalidf("objective", "unknown objective %q (want %s, %s or %s)",
				req.Objective, ObjectiveTime, ObjectiveMemory, ObjectivePareto)
		}
		sp.Search = strings.ToLower(strings.TrimSpace(req.Search))
		if sp.Search == "" {
			sp.Search = SearchGuided
		}
		switch sp.Search {
		case SearchExact, SearchGuided, SearchRobust:
		default:
			return nil, invalidf("search", "unknown search %q (want %s, %s or %s)",
				req.Search, SearchExact, SearchGuided, SearchRobust)
		}
	case ModePipeline:
		sp.MicroBatches = req.MicroBatches
		if sp.MicroBatches == 0 {
			sp.MicroBatches = 4
		}
		if sp.MicroBatches < 1 || sp.MicroBatches > maxMicroBatches {
			return nil, invalidf("micro_batches", "must be in [1, %d], got %d", maxMicroBatches, req.MicroBatches)
		}
		sp.Discipline = strings.ToLower(strings.TrimSpace(req.Discipline))
		if sp.Discipline == "" {
			sp.Discipline = "gpipe"
		}
		if _, ok := disciplines[sp.Discipline]; !ok {
			return nil, invalidf("discipline", "unknown discipline %q (want gpipe, pipedream or dapple)", req.Discipline)
		}
		sp.GroupSize = req.GroupSize
		if sp.GroupSize == 0 {
			sp.GroupSize = 1
		}
		if sp.GroupSize < 1 {
			return nil, invalidf("group_size", "must be ≥ 1, got %d", req.GroupSize)
		}
	}

	if sp.Mode != ModeDataPar && strings.TrimSpace(req.Search) != "" {
		return nil, invalidf("search", "search only applies to %s mode", ModeDataPar)
	}
	if sp.Mode != ModeDataPar && strings.TrimSpace(req.Objective) != "" {
		return nil, invalidf("objective", "objective only applies to %s mode", ModeDataPar)
	}

	if req.TimeoutMillis < 0 {
		return nil, invalidf("timeout_ms", "must be ≥ 0, got %d", req.TimeoutMillis)
	}
	sp.deadlineMillis = req.TimeoutMillis

	// Model: zoo name or inline spec, never both.
	hasName := strings.TrimSpace(req.Model) != ""
	hasSpec := len(bytes.TrimSpace(req.ModelSpec)) > 0
	switch {
	case hasName && hasSpec:
		return nil, invalidf("model", "set exactly one of model and model_spec, not both")
	case hasName:
		name := strings.ToLower(strings.TrimSpace(req.Model))
		if _, ok := models.LookupZoo(name); !ok {
			return nil, &APIError{Code: CodeUnknownModel, Field: "model",
				Message: fmt.Sprintf("unknown model %q; GET /v1/models lists the zoo", req.Model)}
		}
		// Zoo models resolve lazily (resolveModel): cache hits are served from
		// the fingerprint alone and never pay the model build.
		sp.ModelName = name
	case hasSpec:
		if len(req.ModelSpec) > maxModelSpecBytes {
			return nil, invalidf("model_spec", "spec exceeds %d bytes", maxModelSpecBytes)
		}
		m, err := models.ReadJSON(bytes.NewReader(req.ModelSpec))
		if err != nil {
			return nil, invalidf("model_spec", "%v", err)
		}
		if m.Batch < 1 {
			return nil, invalidf("model_spec", "model %q: batch must be ≥ 1, got %d", m.Name, m.Batch)
		}
		if len(m.Layers) > maxLayers {
			return nil, invalidf("model_spec", "model has %d layers, limit %d", len(m.Layers), maxLayers)
		}
		// Layer times come from the caller's profile; the cluster profile
		// drives only micro-batch re-derivation, so pin it for determinism.
		m.Profile = profiles[sp.GPU].prof
		digest := sha256.Sum256(canonicalModelJSON(req.ModelSpec))
		sp.ModelDigest = hex.EncodeToString(digest[:])
		sp.model = m
	default:
		return nil, invalidf("model", "one of model and model_spec is required")
	}

	return sp, nil
}

// canonicalModelJSON re-encodes raw JSON with insignificant whitespace
// removed, so semantically identical inline specs share a fingerprint.
// Invalid JSON cannot reach here (ReadJSON already accepted it).
func canonicalModelJSON(raw json.RawMessage) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

// fingerprint returns the canonical cache key of the normalized request:
// sha256 over the planSpec's canonical JSON.
func (sp *planSpec) fingerprint() string {
	b, err := json.Marshal(sp)
	if err != nil {
		// planSpec is marshalable by construction.
		panic(fmt.Errorf("plansvc: fingerprint marshal: %w", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// The spec methods of a plan request.
func (sp *planSpec) base() *planSpec       { return sp }
func (sp *planSpec) kind() string          { return "plan" }
func (sp *planSpec) newResponse() response { return new(PlanResponse) }

func (sp *planSpec) compute(s *Service) (response, error) {
	resp, err := s.planFn(sp)
	if err != nil {
		return nil, err
	}
	s.recordSearchStats(resp.SearchStats)
	return resp, nil
}

func (r *PlanResponse) fingerprint() string { return r.Fingerprint }

// resolveModel returns the request's model, building zoo models on first use.
// Inline specs are decoded eagerly in normalize (their content must be
// validated at request time); zoo names are built only when a plan is
// actually computed.
func (sp *planSpec) resolveModel() *models.Model {
	if sp.model == nil {
		m, err := models.BuildZoo(sp.ModelName, profiles[sp.GPU].prof)
		if err != nil {
			// The name was validated in normalize.
			panic(fmt.Errorf("plansvc: zoo model %q: %w", sp.ModelName, err))
		}
		if sp.retime != nil {
			// Re-time the zoo model's layer durations onto the fitted cost
			// laws (Options.CostTable). Inline specs never take this path —
			// their times are the caller's own measurements. The table was
			// checked at service construction, so failure here is a bug, and
			// safeCompute turns the panic into a typed internal error.
			m, err = models.Retimed(m, sp.retime)
			if err != nil {
				panic(fmt.Errorf("plansvc: retime zoo model %q with table %q: %w", sp.ModelName, sp.retime.Name, err))
			}
		}
		sp.model = m
	}
	return sp.model
}

// link resolves a link name, applying the spec's what-if bandwidth factor.
func (sp *planSpec) link(name string) netsim.LinkSpec {
	l := links[name]
	if b := sp.BwScale; b != 0 && b != 1 {
		l = scaleLink(l, b)
	}
	return l
}

// cluster materializes the datapar cluster of the spec.
func (sp *planSpec) cluster() datapar.Cluster {
	return datapar.Cluster{
		Name:    "custom",
		PerNode: sp.GPUsPerNode,
		MaxGPUs: sp.MaxGPUs,
		NIC:     sp.link(sp.Interconnect),
		Intra:   sp.link(sp.IntraNode),
		Profile: profiles[sp.GPU].prof,
	}
}

// linkName maps a LinkSpec back to its request vocabulary name.
func linkName(s netsim.LinkSpec) string {
	for name, l := range links {
		if l.Name == s.Name {
			return name
		}
	}
	return strings.ToLower(s.Name)
}

// Request hard limits.
const (
	defaultGPUs       = 8
	maxCustomGPUs     = 1024
	maxMicroBatches   = 256
	maxLayers         = 4096
	maxModelSpecBytes = 8 << 20
	maxBodyBytes      = 8<<20 + 4096
)
