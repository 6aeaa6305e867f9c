//! The API's error contract: a machine-readable [`ErrorCode`] plus a
//! human-readable message, serialized as `{"code": ..., "error": ...}`.
//!
//! The `error` field name is shared with the pre-v1 wire format, so legacy
//! consumers that only read the message keep working; new consumers branch
//! on `code` instead of substring-matching messages.

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Machine-readable error category, mapped one-to-one onto an HTTP status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was syntactically or semantically malformed (400).
    BadRequest,
    /// The route or resource does not exist (404).
    NotFound,
    /// The named scenario is in no catalog (404).
    UnknownScenario,
    /// The job id is unknown or its record was evicted (404).
    UnknownJob,
    /// The worker id is unknown or the worker was evicted for missing
    /// heartbeats — the worker should re-register (404).
    UnknownWorker,
    /// The job is already finished, so the operation no longer applies
    /// (409).
    Conflict,
    /// The submission queue is at capacity (503).
    QueueFull,
    /// The HTTP method is not supported on this route (405).
    MethodNotAllowed,
    /// A request size limit was exceeded (413).
    PayloadTooLarge,
    /// A protocol feature the server does not implement (501).
    NotImplemented,
    /// An unexpected server-side failure (500).
    Internal,
}

impl ErrorCode {
    /// Every code in the contract, in status order. Lets tests and docs
    /// enumerate the full error surface without hand-kept lists.
    pub const ALL: [ErrorCode; 11] = [
        ErrorCode::BadRequest,
        ErrorCode::NotFound,
        ErrorCode::UnknownScenario,
        ErrorCode::UnknownJob,
        ErrorCode::UnknownWorker,
        ErrorCode::MethodNotAllowed,
        ErrorCode::Conflict,
        ErrorCode::PayloadTooLarge,
        ErrorCode::Internal,
        ErrorCode::NotImplemented,
        ErrorCode::QueueFull,
    ];

    /// The snake_case wire name of this code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::NotFound => "not_found",
            ErrorCode::UnknownScenario => "unknown_scenario",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::UnknownWorker => "unknown_worker",
            ErrorCode::Conflict => "conflict",
            ErrorCode::QueueFull => "queue_full",
            ErrorCode::MethodNotAllowed => "method_not_allowed",
            ErrorCode::PayloadTooLarge => "payload_too_large",
            ErrorCode::NotImplemented => "not_implemented",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name back into a code.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "not_found" => ErrorCode::NotFound,
            "unknown_scenario" => ErrorCode::UnknownScenario,
            "unknown_job" => ErrorCode::UnknownJob,
            "unknown_worker" => ErrorCode::UnknownWorker,
            "conflict" => ErrorCode::Conflict,
            "queue_full" => ErrorCode::QueueFull,
            "method_not_allowed" => ErrorCode::MethodNotAllowed,
            "payload_too_large" => ErrorCode::PayloadTooLarge,
            "not_implemented" => ErrorCode::NotImplemented,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The HTTP status this code is answered with.
    #[must_use]
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::NotFound
            | ErrorCode::UnknownScenario
            | ErrorCode::UnknownJob
            | ErrorCode::UnknownWorker => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Conflict => 409,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::Internal => 500,
            ErrorCode::NotImplemented => 501,
            ErrorCode::QueueFull => 503,
        }
    }

    /// The generic code for an HTTP status (used when only the status is
    /// known, e.g. protocol-level rejections).
    #[must_use]
    pub fn from_status(status: u16) -> Self {
        match status {
            404 => ErrorCode::NotFound,
            405 => ErrorCode::MethodNotAllowed,
            409 => ErrorCode::Conflict,
            413 => ErrorCode::PayloadTooLarge,
            500 => ErrorCode::Internal,
            501 => ErrorCode::NotImplemented,
            503 => ErrorCode::QueueFull,
            _ => ErrorCode::BadRequest,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for ErrorCode {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for ErrorCode {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Str(s) => {
                ErrorCode::parse(s).ok_or_else(|| SerdeError::unknown_variant(s, "ErrorCode"))
            }
            _ => Err(SerdeError::invalid("string", "ErrorCode")),
        }
    }
}

/// A typed API error: every non-2xx v1 response body is one of these.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ApiError {
    /// The machine-readable category.
    pub code: ErrorCode,
    /// The human-readable message (field named `error` on the wire for
    /// pre-v1 compatibility).
    pub error: String,
}

impl ApiError {
    /// An error with `code` and `message`.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            error: message.into(),
        }
    }

    /// The HTTP status this error is answered with.
    #[must_use]
    pub fn status(&self) -> u16 {
        self.code.status()
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.error)
    }
}

impl std::error::Error for ApiError {}

// Hand-written: a missing or unknown `code` (a proxy, a pre-v1 server
// answering `{"error": ...}`, or a newer server's new code) maps onto
// `Internal` so the client still surfaces the message — a fallback the
// derive cannot express.
impl Deserialize for ApiError {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let Value::Object(_) = v else {
            return Err(SerdeError::invalid("object", "ApiError"));
        };
        let error = match v.get("error") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(SerdeError::invalid("string `error` field", "ApiError")),
        };
        let code = match v.get("code") {
            Some(Value::Str(s)) => ErrorCode::parse(s).unwrap_or(ErrorCode::Internal),
            _ => ErrorCode::Internal,
        };
        Ok(ApiError { code, error })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_round_trips_and_maps_to_a_status() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
            assert!((400..=503).contains(&code.status()));
            let text = serde_json::to_string(&code).expect("serializes");
            let back: ErrorCode = serde_json::from_str(&text).expect("parses");
            assert_eq!(back, code);
        }
    }

    #[test]
    fn api_error_round_trips_and_tolerates_legacy_bodies() {
        let e = ApiError::new(ErrorCode::UnknownScenario, "no scenario `fig9`");
        let text = serde_json::to_string(&e).expect("serializes");
        assert!(text.contains("\"code\":\"unknown_scenario\""), "{text}");
        assert!(text.contains("\"error\":\"no scenario `fig9`\""), "{text}");
        let back: ApiError = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, e);

        // Pre-v1 body without a code still parses.
        let legacy: ApiError =
            serde_json::from_str(r#"{"error":"queue full"}"#).expect("legacy parses");
        assert_eq!(legacy.code, ErrorCode::Internal);
        assert_eq!(legacy.error, "queue full");

        // A body without a message is rejected.
        assert!(serde_json::from_str::<ApiError>(r#"{"code":"conflict"}"#).is_err());
    }
}
