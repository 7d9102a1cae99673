package schedd_test

import (
	"net/http"

	"carbonshift/internal/gateway"
	"carbonshift/internal/schedd"
)

// The partitioned fleet of the fault harness runs the real gateway.
func init() {
	schedd.NewGateway = func(partitions [][]string) (http.Handler, error) {
		g, err := gateway.New(gateway.Config{Partitions: partitions})
		if err != nil {
			return nil, err
		}
		return g.Handler(), nil
	}
}
