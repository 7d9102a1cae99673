package schedd

import "net/http"

// NewGateway builds the partitioned fleet's gateway over each
// partition's URLs. internal/gateway imports this package, so the
// harness cannot; gateway_test.go, in package schedd_test, sets it.
var NewGateway func(partitions [][]string) (http.Handler, error)
