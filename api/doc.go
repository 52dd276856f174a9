// Package api is the versioned public wire protocol of the xbarsec
// attack-campaign service: every request and response body exchanged
// with an xbarserve instance is one of the typed structs in this
// package, every error response is the uniform Error envelope, and the
// protocol version is negotiated through GET /v2/version. The package
// has no dependencies beyond the standard library, so any Go client —
// the bundled client SDK (xbarsec/client), the CLI's remote paths, or
// third-party tooling — can speak the protocol by importing it alone.
//
// # Endpoints (protocol v2)
//
//	GET    /healthz                    Health
//	GET    /v2/version                 VersionInfo
//	GET    /v2/victims                 []VictimStats
//	POST   /v2/sessions                OpenSessionRequest  -> Session
//	GET    /v2/sessions/{id}           Session
//	DELETE /v2/sessions/{id}           SessionClosed
//	POST   /v2/sessions/{id}/query     QueryRequest        -> QueryResponse
//	POST   /v2/sessions/{id}/queries   QueryBatchRequest   -> QueryBatchResponse
//	                                   (or the QueryBatchContentType frame)
//	POST   /v2/campaigns               CampaignRequest     -> CampaignResult
//	POST   /v2/extract                 ExtractRequest      -> ExtractResult
//	GET    /v2/experiments             []ExperimentInfo
//	POST   /v2/experiments             ExperimentSpec      -> Job
//	                                   (?wait=1 blocks for the result)
//	GET    /v2/experiments/jobs/{id}   Job
//	GET    /v2/stats                   Stats (?format=csv for CSV)
//	GET    /v2/cluster                 ClusterInfo
//	GET    /v2/artifacts/{id}          Artifact
//	GET    /v2/artifacts/{id}/proof    ArtifactProof
//	GET    /v2/metrics                 Prometheus text exposition
//
// # Versioning policy
//
// The protocol follows the usual major/minor contract. Within one major
// version, servers may add endpoints and add response fields, and may
// accept new optional request fields — they never rename or remove
// fields, change a field's type, or change an endpoint's meaning.
// Clients must therefore tolerate unknown response fields. Anything
// incompatible increments Major (and the versioned path prefix, see
// PathPrefix), and the client SDK refuses to talk to a server whose
// major version differs from its own (ErrorCode "version_mismatch").
//
// Protocol v2 is exactly such a break: the server's victim derivation
// changed (one canonical RNG stream per model config, shared by every
// runner), so campaign, extraction and experiment responses carry
// different numbers than a v1 server would return for the same request
// — an endpoint-meaning change, not a schema change. See version.go.
//
// v2.1 adds the tensor-backend surface: VersionInfo.TensorBackend and
// Stats.TensorBackend report the GEMM backend the server computes with,
// and ExperimentOptions.TensorBackend lets a spec assert the backend it
// expects (a mismatch is a bad_request, never silently different
// numbers). All additive — v2.0 clients are unaffected.
//
// v2.2 adds the cluster + provenance surface: GET /v2/cluster exposes a
// node's static membership, GET /v2/artifacts/{id} (+ /proof) serves
// spilled artifacts by content address with their Merkle provenance
// chains (see provenance.go), GET /v2/metrics exposes cache gauges in
// the Prometheus text format, and the node_redirect error (HTTP 421,
// Error.RedirectTo) tells a client which node owns the key it asked the
// wrong node for. All additive — a single-node server never redirects,
// and v2.1 clients may ignore every new endpoint.
//
// v2.3 adds a binary request body for POST /v2/sessions/{id}/queries:
// with Content-Type QueryBatchContentType the rows travel as one
// CRC-checked frame of little-endian float64s (see frame.go) instead of
// JSON, which cuts the request to 8 bytes per value and spares both
// ends the float text codec. VersionInfo.BatchEncodings advertises it,
// and the SDK uses it whenever the server does. The response stays
// JSON. All additive — JSON remains the default, and v2.2 clients never
// send the frame.
//
// # Errors
//
// Every non-2xx response carries the Error envelope {code, message,
// detail}. Code is machine-readable and stable across the major
// version; Message and Detail are human-readable and may change.
// Clients switch on Code (or on the HTTP status, which is derived from
// it — see ErrorCode.HTTPStatus), never on message text.
package api
