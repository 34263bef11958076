package wire

import (
	"crypto/x509"
	"fmt"
	"os"
)

// LoadCertPool reads a PEM bundle (the -tls-ca flag) into a pinned
// certificate pool: a peer is trusted only if it presents a chain to
// one of these CAs.
func LoadCertPool(path string) (*x509.CertPool, error) {
	pem, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wire: reading CA bundle: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("wire: %s contains no usable CA certificates", path)
	}
	return pool, nil
}
